import gc
import math
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from subell import certificates as certs
from subell.linalg import dual_norm, nonneg_sqrt
from subell.oracles import Ball, OracleResponse, problem_from_dict
from subell.solver import (
    BLOCK_ROWS,
    VARIANTS,
    History,
    HistoryRecord,
    Schedule,
    SolverState,
    StrategyConfig,
    TraceRow,
    avg_radius,
    delta_from_target,
    gamma_opt,
    initial_state,
    localizer_geometry,
    q_and_zeta,
    reconstruct_state,
    run,
    sliding_gap,
    step,
)
from subell.support import _xi_gram

from helpers import (
    classical_ellipsoid,
    max_affine_ball,
    max_affine_box,
    random_spd,
    saddle_problem,
    support_exact,
    support_samples,
    vi_problem,
)


class TestGammaOpt:
    def test_recovers_standard_ellipsoid_coefficient(self):
        for n in range(2, 12):
            assert gamma_opt(0.5, n) == pytest.approx(2.0 / (n - 1), rel=1e-14)
        assert gamma_opt(0.5, 3) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value_c1_p4(self):
        # 2 / (sqrt(15) + 3), inside [1/(cp), 2/(cp)] = [1/4, 1/2]
        got = gamma_opt(1.0, 4)
        assert got == pytest.approx(0.2909944487358056, rel=1e-15)
        assert 0.25 <= got <= 0.5

    def test_interval_membership_and_value_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = float(rng.uniform(0.5, 3.0))
            p = float(rng.uniform(2.0, 40.0))
            g = gamma_opt(c, p)
            assert 1.0 / (c * p) - 1e-12 <= g <= 2.0 / (c * p) + 1e-12
            _, zeta = q_and_zeta(c, p, g)
            assert zeta <= math.exp(-1.0 / (2.0 * c * p)) + 1e-12

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            gamma_opt(0.4, 5)
        with pytest.raises(ValueError):
            gamma_opt(1.0, 1.5)


class TestQAndZeta:
    def test_degenerate_limit(self):
        q, zeta = q_and_zeta(1.0, 5, 1e-12)
        assert q == pytest.approx(1.0, abs=1e-10)
        assert zeta == pytest.approx(1.0, abs=1e-10)

    def test_frozen_value(self):
        # c = 1/2, gamma = 1: q = 1 + 0.5/(2*2) = 1.125
        q, _ = q_and_zeta(0.5, 3, 1.0)
        assert q == pytest.approx(1.125, abs=1e-15)

    def test_grid_minimum_sits_at_gamma_opt(self):
        for c, p in ((0.5, 4), (1.0, 6), (2.0, 10)):
            gstar = gamma_opt(c, p)
            grid = np.linspace(1e-4, 4.0 / (c * p), 20_001)
            zetas = np.array([q_and_zeta(c, p, g)[1] for g in grid])
            gmin = float(grid[np.argmin(zetas)])
            assert gmin == pytest.approx(gstar, abs=2 * (grid[1] - grid[0]))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            q_and_zeta(1.0, 4, 0.0)


def _first_record(state, config, g):
    """The history record of one step from ``state`` with oracle vector g."""
    _, rec, _ = step(state, OracleResponse(g=g, productive=True), config)
    return rec


class TestComputeU:
    def test_initial_iteration_is_ball_support(self):
        prob = max_affine_ball(np.random.default_rng(1), 3, R=2.0)
        config = StrategyConfig.for_variant("ellipsoid", 3)
        state = initial_state(prob)
        g = np.array([1.0, -2.0, 0.5])
        rec = _first_record(state, config, g)
        assert rec.U == pytest.approx(2.0 * np.linalg.norm(g), rel=1e-14)

    def test_standard_ellipsoid_closed_form_along_run(self):
        prob = max_affine_ball(np.random.default_rng(2), 4)
        config = StrategyConfig.for_variant("ellipsoid", 4)
        state = initial_state(prob)
        for _ in range(30):
            resp = prob.oracle(state.x)
            want = math.sqrt(state.Rsq) * dual_norm(state.H, resp.g)
            state, rec, terminal = step(state, resp, config)
            assert rec.U == pytest.approx(want, rel=1e-12)
            assert not terminal

    def test_against_primal_geometry_and_sampling(self):
        rng = np.random.default_rng(3)
        prob = max_affine_ball(rng, 3)
        config = StrategyConfig.for_variant(
            "subgrad-ellipsoid", 3, schedule=Schedule("const", 12))
        res = run(prob, config, 12)
        state = res.state
        resp = prob.oracle(state.x)
        g = resp.g
        z, D = localizer_geometry(state)
        lead = float(g @ (state.x - z))
        beta = state.sigma - float(state.c @ z)
        _, rec, _ = step(state, resp, config)
        got = rec.U
        exact = lead + support_exact(D * state.H, -g, state.c, beta)
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)
        sampled = lead + support_samples(D * state.H, -g, state.c, beta, rng,
                                         n_interior=20000, n_boundary=40000)
        assert sampled <= got + 1e-9
        assert got - sampled <= 1e-3 * max(1.0, abs(got))

    def test_nonnegative_on_every_iteration(self):
        rng = np.random.default_rng(4)
        for variant in ("subgradient", "ellipsoid", "ellipsoid-cert", "subgrad-ellipsoid"):
            prob = max_affine_box(rng, 3)
            config = StrategyConfig.for_variant(variant, 3,
                                                schedule=Schedule("decay"))
            res = run(prob, config, 40)
            assert all(rec.U >= -1e-12 for rec in res.records)


class TestCoefficients:
    def test_subgradient_variant(self):
        prob = max_affine_ball(np.random.default_rng(5), 2, R=1.5)
        config = StrategyConfig.for_variant("subgradient", 2,
                                            schedule=Schedule("const", 16))
        state = initial_state(prob)
        rec = _first_record(state, config, np.array([3.0, 4.0]))
        assert rec.b == 0.0
        assert rec.a == pytest.approx((1.0 / 4.0) * 1.5 / 5.0, rel=1e-14)

    def test_standard_ellipsoid_variant(self):
        config = StrategyConfig.for_variant("ellipsoid", 3)
        prob = max_affine_ball(np.random.default_rng(6), 3)
        state = initial_state(prob)
        g = np.array([1.0, 2.0, -1.0])
        rec = _first_record(state, config, g)
        assert rec.a == 0.0
        assert rec.b == pytest.approx(config.gamma / float(g @ g), rel=1e-14)

    def test_step_records_the_same_weights(self):
        # the weights step records match a_k = (alpha_k R + theta gamma R_k/2)
        # / |g|_k and b_k = gamma / |g|_k^2 evaluated apart, along a real run
        prob = max_affine_ball(np.random.default_rng(30), 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        state = initial_state(prob)
        for _ in range(15):
            resp = prob.oracle(state.x)
            dn = dual_norm(state.H, resp.g)
            a = (config.alpha(state.k) * prob.R
                 + 0.5 * config.theta * config.gamma * math.sqrt(state.Rsq)) / dn
            b = config.gamma / dn ** 2
            state, rec, _ = step(state, resp, config)
            assert rec.a == pytest.approx(a, rel=1e-15)
            assert rec.b == pytest.approx(b, rel=1e-15)

    def test_combined_variant_first_step_scalar_check(self):
        # independent scalar evaluation of the first-step weights, n = 2,
        # unit first coefficient in the schedule
        n, R = 2, 1.0
        theta = 2.0 ** (1.0 / 3.0) - 1.0
        gamma = 2.0 / (math.sqrt(16.0 - 1.0) + 3.0)  # optimizer at c=1, p=2n
        prob = max_affine_ball(np.random.default_rng(7), n, R=R)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", n,
                                            schedule=Schedule("const", 1))
        state = initial_state(prob)
        g = prob.oracle(state.x).g
        rec = _first_record(state, config, g)
        gn = float(np.linalg.norm(g))
        want_a = (math.sqrt(theta / (theta + 1.0)) * R + 0.5 * theta * gamma * R) / gn
        assert rec.a == pytest.approx(want_a, rel=1e-13)
        assert rec.b == pytest.approx(gamma / gn**2, rel=1e-13)


class TestStep:
    def test_subgradient_step_leaves_metric_alone(self):
        prob = max_affine_ball(np.random.default_rng(8), 3)
        config = StrategyConfig.for_variant("subgradient", 3,
                                            schedule=Schedule("decay"))
        state = initial_state(prob)
        resp = prob.oracle(state.x)
        new_state, rec, terminal = step(state, resp, config)
        assert not terminal
        assert np.array_equal(new_state.H, state.H)
        assert np.allclose(new_state.x, state.x - rec.a * resp.g, atol=1e-15)

    def test_standard_ellipsoid_update_formulas(self):
        n = 2
        prob = max_affine_ball(np.random.default_rng(9), n)
        config = StrategyConfig.for_variant("ellipsoid", n)
        state = initial_state(prob)
        g = np.array([1.0, 0.0])
        new_state, rec, _ = step(state, OracleResponse(g=g, productive=True), config)
        t = float(g @ (state.H @ g))
        want_x = state.x - (math.sqrt(state.Rsq) / (n + 1)) * (state.H @ g) / math.sqrt(t)
        assert np.allclose(new_state.x, want_x, atol=1e-14)
        want_H = state.H - (2.0 / (n + 1)) * np.outer(state.H @ g, state.H @ g) / t
        assert np.allclose(new_state.H, want_H, atol=1e-14)
        # squared-radius growth n^2/(n^2-1) = 4/3 at n = 2
        assert new_state.Rsq == pytest.approx((4.0 / 3.0) * state.Rsq, rel=1e-14)

    @pytest.mark.parametrize("steps_before", [0, 1])
    def test_zero_oracle_vector_is_terminal(self, steps_before):
        prob = max_affine_ball(np.random.default_rng(26), 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        state = initial_state(prob)
        for _ in range(steps_before):
            state, _, _ = step(state, prob.oracle(state.x), config)
        new_state, rec, terminal = step(
            state, OracleResponse(g=np.zeros(3), productive=True), config)
        assert terminal and new_state is state
        assert rec.a == rec.b == rec.U == 0.0
        assert not np.any(rec.Hg)

    def test_gap_threshold_termination(self):
        prob = max_affine_ball(np.random.default_rng(10), 2)
        config = StrategyConfig.for_variant("ellipsoid-cert", 2, delta_term=0.25)
        res = run(prob, config, 500)
        assert res.termination == "gap-threshold"
        last = res.records[-1]
        assert last.U <= 0.25 * np.linalg.norm(last.g) + 1e-12
        assert last.a == 0.0 and last.b == 0.0
        assert res.state.k == len(res.records) - 1  # no update on the terminal step


class TestSlidingGap:
    def test_subgradient_ball_closed_form(self):
        prob = max_affine_ball(np.random.default_rng(11), 3, R=2.0)
        config = StrategyConfig.for_variant("subgradient", 3,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 25)
        st = res.state
        want = (st.sigma - float(st.c @ prob.x0)
                + prob.R * float(np.linalg.norm(st.c))) / st.Gamma
        assert sliding_gap(st) == pytest.approx(want, rel=1e-12)

    def test_bounds_along_runs(self):
        rng = np.random.default_rng(12)
        for variant in ("subgradient", "ellipsoid-cert", "subgrad-ellipsoid"):
            prob = max_affine_ball(rng, 3)
            config = StrategyConfig.for_variant(variant, 3,
                                                schedule=Schedule("decay"))
            state = initial_state(prob)
            for _ in range(40):
                resp = prob.oracle(state.x)
                state, _, _ = step(state, resp, config)
                gap = sliding_gap(state)
                assert -1e-12 <= gap <= state.Rsq / (2 * state.Gamma) + 1e-12

    def test_matches_sampling_over_current_ellipsoid(self):
        rng = np.random.default_rng(13)
        prob = max_affine_ball(rng, 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("const", 5))
        res = run(prob, config, 5)
        st = res.state
        z, D = localizer_geometry(st)
        got = sliding_gap(st)
        # sample the ellipsoid |x - z|_{H^-1}^2 <= D and evaluate the model
        L = np.linalg.cholesky(st.H)
        U = rng.standard_normal((200_000, 3))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        U *= rng.uniform(0, 1, (200_000, 1)) ** (1 / 3)
        xs = z + math.sqrt(D) * U @ L.T
        vals = (st.sigma - xs @ st.c) / st.Gamma
        best = float(vals.max())
        # deterministic extreme point of the linear model over the ellipsoid
        hc = st.H @ st.c
        xext = z - math.sqrt(D) * hc / dual_norm(st.H, st.c)
        best = max(best, (st.sigma - float(st.c @ xext)) / st.Gamma)
        assert best <= got + 1e-9
        assert got - best <= 1e-3 * max(1.0, abs(got))

    def test_undefined_without_weights(self):
        prob = max_affine_ball(np.random.default_rng(14), 3)
        config = StrategyConfig.for_variant("ellipsoid", 3)
        res = run(prob, config, 5)
        with pytest.raises(ValueError, match="undefined"):
            sliding_gap(res.state)
        assert all(row.sliding_gap is None for row in res.rows)


class TestAvgRadius:
    def test_initial_value(self):
        prob = max_affine_ball(np.random.default_rng(15), 4, R=3.0)
        assert avg_radius(initial_state(prob)) == pytest.approx(3.0, rel=1e-15)

    def test_standard_ellipsoid_volume_identity_and_bound(self):
        n = 4
        prob = max_affine_ball(np.random.default_rng(16), n)
        config = StrategyConfig.for_variant("ellipsoid", n)
        state = initial_state(prob)
        _, zeta = q_and_zeta(0.5, n, config.gamma)
        for k in range(1, 60):
            resp = prob.oracle(state.x)
            state, _, _ = step(state, resp, config)
            want = zeta ** (k / (2.0 * n)) * prob.R
            assert avg_radius(state) == pytest.approx(want, rel=1e-8)
            assert avg_radius(state) <= math.exp(-k / (2.0 * n * n)) * prob.R + 1e-12


class TestRun:
    def test_rejects_nonpositive_iteration_budget(self):
        prob = max_affine_ball(np.random.default_rng(17), 2)
        config = StrategyConfig.for_variant("ellipsoid", 2)
        with pytest.raises(ValueError):
            run(prob, config, 0)

    def test_one_dimensional_abs_value_short_step(self):
        # f(x) = |x| over [-1, 1]: one short-step pass at horizon 1 keeps the
        # sliding gap under 4R at the horizon (n^2 = 1)
        prob = problem_from_dict({
            "kind": "max-of-affine", "dim": 1, "x0": [0.0], "R": 1.0,
            "set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
            "objective": {"rows": [{"a": [1.0], "b": 0.0},
                                   {"a": [-1.0], "b": 0.0}]},
            "xstar": [0.0], "fstar": 0.0,
        })
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 1,
                                            schedule=Schedule("const", 1))
        res = run(prob, config, 1)
        assert sliding_gap(res.state) <= 4.0 * prob.R / math.sqrt(1) + 1e-9

    def test_zero_subgradient_terminates_with_unit_weight_certificate(self):
        prob = problem_from_dict({
            "kind": "max-of-affine", "dim": 2, "x0": [0.0, 0.0], "R": 1.0,
            "set": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
            "objective": {"rows": [{"a": [0.0, 0.0], "b": 1.0}]},  # constant f
            "fstar": 1.0, "xstar": [0.0, 0.0],
        })
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 10)
        assert res.termination == "zero-subgradient"
        assert len(res.records) == 1 and not np.any(res.records[-1].g)
        cert = certs.certify_from_preliminary(res.records, terminal=True)
        assert np.array_equal(cert.weights, np.array([1.0]))
        assert cert.is_certificate and cert.gamma_weighted == 0.0
        assert certs.residual(cert, res.records, prob.x0, prob.R) == 0.0

    def test_trace_rows_one_per_iteration(self):
        prob = max_affine_ball(np.random.default_rng(18), 2)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 37)
        assert len(res.rows) == 37
        assert [row.k for row in res.rows] == list(range(37))
        assert all(np.isfinite(row.R_k) and np.isfinite(row.avrad) for row in res.rows)

    def test_weight_mass_matches_history(self):
        prob = max_affine_ball(np.random.default_rng(25), 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 30)
        replayed = sum(r.a * float(np.linalg.norm(r.g)) for r in res.records)
        assert res.state.Gamma == pytest.approx(replayed, rel=1e-9)

    def test_reconstruct_state_matches_fresh_run(self):
        prob = max_affine_ball(np.random.default_rng(19), 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        full = run(prob, config, 20)
        short = run(prob, config, 7)
        st = reconstruct_state(prob, full.records, 7, full.state)
        assert np.allclose(st.x, short.state.x, atol=1e-14)
        assert np.allclose(st.H, short.state.H, atol=1e-14)
        assert st.Rsq == pytest.approx(short.state.Rsq, rel=1e-14)
        assert st.Gamma == pytest.approx(short.state.Gamma, rel=1e-14)
        assert st.sigma == pytest.approx(short.state.sigma, rel=1e-14)
        assert st.log_det_H == pytest.approx(short.state.log_det_H, rel=1e-12, abs=1e-15)


class TestRateMachinery:
    def test_radius_growth_without_alpha(self):
        # R_k^2 grows exactly by q_c(gamma) per step when a_k = 0 (theta = 0);
        # with theta > 0 the accumulated cut shrinks the support, so q^k R^2
        # is only an upper bound (strict in practice)
        rng = np.random.default_rng(20)
        prob = max_affine_ball(rng, 3)
        config = StrategyConfig.for_variant("ellipsoid", 3)
        q, _ = q_and_zeta(0.5, 3, config.gamma)
        res = run(prob, config, 60)
        assert res.state.Rsq == pytest.approx(q ** 60 * prob.R ** 2, rel=1e-10)

        prob = max_affine_ball(rng, 3)
        config = StrategyConfig.for_variant("ellipsoid-cert", 3)
        theta = math.sqrt(2) - 1
        q, _ = q_and_zeta(0.5 * (theta + 1) ** 2, 3, config.gamma)
        res = run(prob, config, 60)
        assert res.state.Rsq <= q ** 60 * prob.R ** 2 * (1 + 1e-12)

    def test_radius_growth_bound_with_alpha(self):
        # R_k^2 <= q^k C_k R^2, tau = theta, plus the sharper C'_k diagnostic
        prob = max_affine_ball(np.random.default_rng(21), 3)
        theta = 2.0 ** (1.0 / 3.0) - 1.0
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        c = 0.5 * (theta + 1.0) * (theta + 1.0) ** 2
        c = 0.5 * (theta + 1.0) ** 3
        q, _ = q_and_zeta(c, 3, config.gamma)
        state = initial_state(prob)
        sum_a2 = 0.0
        sum_a2_disc = 0.0
        for k in range(50):
            alpha = config.alpha(k)
            resp = prob.oracle(state.x)
            state, _, _ = step(state, resp, config)
            sum_a2 += alpha ** 2
            sum_a2_disc += alpha ** 2 / q ** (k + 1)
            Ck = 1.0 + (theta + 1.0) / theta * sum_a2
            Ck_sharp = 1.0 + (theta + 1.0) / (theta * (1.0 + config.gamma)) * sum_a2_disc
            bound = q ** (k + 1) * Ck * prob.R ** 2
            assert state.Rsq <= bound * (1 + 1e-12)
            assert state.Rsq <= q ** (k + 1) * Ck_sharp * prob.R ** 2 * (1 + 1e-12)

    def test_weight_mass_lower_bound(self):
        # Gamma_k >= R (sum alpha_i + theta/2 sqrt(gamma n ((1+gamma)^(k/n)-1)))
        rng = np.random.default_rng(22)
        n = 4
        for variant in ("ellipsoid-cert", "subgrad-ellipsoid"):
            prob = max_affine_ball(rng, n)
            config = StrategyConfig.for_variant(variant, n,
                                                schedule=Schedule("decay"))
            state = initial_state(prob)
            sum_alpha = 0.0
            for k in range(80):
                sum_alpha += config.alpha(k)
                resp = prob.oracle(state.x)
                state, _, _ = step(state, resp, config)
                grow = (1.0 + config.gamma) ** ((k + 1) / n) - 1.0
                lower = prob.R * (sum_alpha + 0.5 * config.theta
                                  * math.sqrt(config.gamma * n * grow))
                assert state.Gamma >= lower * (1 - 1e-12)

    def test_matches_classical_ellipsoid_recursion(self):
        prob = max_affine_ball(np.random.default_rng(23), 3)
        config = StrategyConfig.for_variant("ellipsoid", 3)
        res = run(prob, config, 50)
        xs = classical_ellipsoid(prob, 50)
        ours = [rec.x for rec in res.records] + [res.state.x]
        worst = max(float(np.linalg.norm(a - b)) for a, b in zip(ours, xs))
        assert worst <= 1e-10

    def test_localizer_interior_on_nonterminal_iterations(self):
        rng = np.random.default_rng(24)
        prob = max_affine_box(rng, 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 60)
        assert res.termination == "max-iter"
        assert all(rec.D > 0 for rec in res.records)


class TestConfig:
    def test_delta_from_target(self):
        assert delta_from_target(1.0, 0.5, 3.0) == pytest.approx(0.125)
        with pytest.raises(ValueError):
            delta_from_target(-1.0, 0.5, 3.0)

    @pytest.mark.parametrize("epsilon,r,V", [
        (math.nan, 0.5, 3.0), (math.inf, 0.5, 3.0), (1.0, math.inf, 3.0),
        (1.0, 0.5, math.nan), (1.0, 0.5, math.inf)])
    def test_delta_from_target_rejects_nonfinite(self, epsilon, r, V):
        with pytest.raises(ValueError, match="finite"):
            delta_from_target(epsilon, r, V)

    def test_standard_ellipsoid_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            StrategyConfig.for_variant("ellipsoid", 1)

    def test_schedule_parsing(self):
        assert Schedule.parse("decay").kind == "decay"
        s = Schedule.parse("const:25")
        assert s.kind == "const" and s.horizon == 25
        with pytest.raises(ValueError):
            Schedule.parse("warp")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            StrategyConfig.for_variant("newton", 3)

    def test_theta_override_is_exposed(self):
        # only the preset values are documented as supported, but the knob
        # exists for experimentation
        cfg = StrategyConfig.for_variant("ellipsoid-cert", 4, theta=0.3)
        assert cfg.theta == 0.3
        cfg = StrategyConfig.for_variant("subgrad-ellipsoid", 4, theta=0.3,
                                         schedule=Schedule("decay"))
        assert cfg.alpha_scale == pytest.approx(math.sqrt(0.3 / 1.3))

    def test_parameter_presets(self):
        cfg = StrategyConfig.for_variant("ellipsoid", 5)
        assert cfg.theta == 0.0 and cfg.gamma == pytest.approx(0.5)
        cfg = StrategyConfig.for_variant("ellipsoid-cert", 5)
        assert cfg.theta == pytest.approx(math.sqrt(2) - 1)
        assert cfg.gamma == pytest.approx(gamma_opt(1.0, 10))
        cfg = StrategyConfig.for_variant("subgrad-ellipsoid", 5,
                                         schedule=Schedule("decay"))
        th = 2 ** (1 / 3) - 1
        assert cfg.theta == pytest.approx(th)
        assert cfg.alpha_scale == pytest.approx(math.sqrt(th / (th + 1)))


def _quadratic_ball(rng, n):
    return problem_from_dict({
        "kind": "quadratic-over-ball", "dim": n, "x0": [0.0] * n, "R": 1.0,
        "set": {"type": "ball", "center": [0.0] * n, "radius": 0.5},
        "objective": {"P": random_spd(rng, n).tolist(),
                      "q": rng.standard_normal(n).tolist()},
    })


FAMILIES = {
    "max-affine-ball": lambda rng: max_affine_ball(rng, 4),
    "max-affine-box": lambda rng: max_affine_box(rng, 3),
    "quadratic": lambda rng: _quadratic_ball(rng, 3),
    "saddle": lambda rng: saddle_problem(rng, 2, 2),
    "vi": lambda rng: vi_problem(rng, 3),
}


class TestLeanHistory:
    """The history keeps no operator, and every replay goes through the
    update ``step`` applies.  ``run`` takes the steps of a bare ``step``
    loop (with or without the ignored ``keep_operators``), and
    ``reconstruct_state`` at every k, from scratch and chained through
    ``start=``, equals field by field the state that loop passed through;
    ``rec.H`` is that state's operator, and the derived ``rec.c`` is that
    state's ``c`` bit for bit.  A trace row's objective value is
    ``f_value`` at the recorded point exactly, whether the oracle or
    ``f_value`` formed it.  The stacked history holds little more than its
    rows, and only the blocks a run fills."""

    @staticmethod
    def _assert_same_state(got, want):
        for field in fields(SolverState):
            assert np.array_equal(getattr(got, field.name),
                                  getattr(want, field.name)), field.name

    @classmethod
    def _assert_lean_matches_full(cls, prob, config, iters):
        state = initial_state(prob)
        states, stepped = [state], []
        for _ in range(iters):
            state, rec, terminal = step(state, prob.oracle(state.x), config)
            stepped.append(rec)
            if terminal:
                break
            states.append(state)
        with pytest.raises(ValueError, match="made by run"):
            stepped[0].H

        lean = run(prob, config, iters)
        kept = run(prob, config, iters, keep_operators=True)
        for a, b in zip(kept.rows, lean.rows):
            assert replace(b, wall_time_us=0.0) == replace(a, wall_time_us=0.0)
        K = len(lean.records)
        assert len(lean.rows) == K == len(stepped) == len(kept.records)
        for a, b in zip(stepped, lean.records):
            cls._assert_same_record(b, a)
        cls._assert_same_state(lean.state, states[-1])

        chained = None
        for k in range(K + 1):
            want = states[min(k, len(states) - 1)]
            cls._assert_same_state(
                reconstruct_state(prob, lean.records, k, lean.state), want)
            chained = reconstruct_state(prob, lean.records, k, lean.state,
                                        start=chained)
            cls._assert_same_state(chained, want)
        for k in sorted({0, K // 2, K - 1}):
            assert np.array_equal(lean.records[k].H, states[k].H)
        for k, rec in enumerate(lean.records):
            assert rec.c.tobytes() == states[min(k, len(states) - 1)].c.tobytes()
        for row, rec in zip(lean.rows, lean.records):
            assert row.f_value == prob.f_value(rec.x)
        cls._assert_history_reads_like_a_list(lean.records)
        return lean

    @staticmethod
    def _assert_same_record(got, want):
        for field in fields(HistoryRecord):
            if field.compare:
                assert np.array_equal(getattr(got, field.name),
                                      getattr(want, field.name)), field.name

    @classmethod
    def _assert_history_reads_like_a_list(cls, history):
        """Indexing, slicing and iterating a ``History`` behave as on
        ``list(history)``, and scalar fields come back as Python scalars,
        so the bytes written from them cannot depend on the storage."""
        listed = list(history)
        K = len(history)
        assert isinstance(history, History) and len(listed) == K
        for k in (0, K // 2, K - 1, -1, -K):
            cls._assert_same_record(history[k], listed[k])
        for bad in (K, -K - 1):
            with pytest.raises(IndexError):
                history[bad]
        for a, b in ((0, K), (1, K // 2), (K // 2, K), (-3, None), (None, -2), (5, 2)):
            view = history[a:b]
            assert isinstance(view, History)
            assert len(view) == len(listed[a:b])
            for got, want in zip(view, listed[a:b]):
                cls._assert_same_record(got, want)
        for rec in listed:
            for name in ("a", "b", "D", "sigma", "U", "gnorm"):
                assert type(getattr(rec, name)) is float, name
            assert type(rec.productive) is bool

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_lean_run_matches_full_run(self, family, variant):
        prob = FAMILIES[family](np.random.default_rng(50))
        config = StrategyConfig.for_variant(variant, prob.dim,
                                            schedule=Schedule("decay"))
        lean = self._assert_lean_matches_full(prob, config, 60)
        minimization = family in ("max-affine-ball", "max-affine-box", "quadratic")
        assert all((row.f_value is not None) == minimization for row in lean.rows)
        assert any(row.productive for row in lean.rows)

    def test_gap_threshold_stop(self):
        prob = max_affine_ball(np.random.default_rng(10), 2)
        config = StrategyConfig.for_variant("ellipsoid-cert", 2, delta_term=0.25)
        lean = self._assert_lean_matches_full(prob, config, 500)
        assert lean.termination == "gap-threshold"

    def test_zero_subgradient_stop(self):
        prob = problem_from_dict({
            "kind": "max-of-affine", "dim": 2, "x0": [0.0, 0.0], "R": 1.0,
            "set": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
            "objective": {"rows": [{"a": [0.0, 0.0], "b": 1.0}]},
        })
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2,
                                            schedule=Schedule("decay"))
        lean = self._assert_lean_matches_full(prob, config, 10)
        assert lean.termination == "zero-subgradient"

    def test_dropped_result_is_freed_without_the_cycle_collector(self):
        prob = max_affine_ball(np.random.default_rng(51), 30)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 30,
                                            schedule=Schedule("decay"))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run(prob, config, 2000)
            held = tracemalloc.get_traced_memory()[0] - before
            assert res.records[-1].H.shape == (30, 30)
            del res
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        # 2000 steps hold four stacked n-vectors and seven scalars each,
        # and a trace row: about 2.6 MB
        assert held > 2_000_000
        assert left < 0.01 * held

    @staticmethod
    def _held_by_run(prob, config, max_iter, collect_trace):
        """``(result, bytes it holds, peak bytes while it ran)``."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run(prob, config, max_iter, collect_trace=collect_trace)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return res, held - before, peak - before

    def test_history_holds_its_stacked_rows_per_step(self):
        n, K = 30, 2000
        prob = max_affine_ball(np.random.default_rng(51), n)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", n,
                                            schedule=Schedule("decay"))
        res, held, _ = self._held_by_run(prob, config, K, collect_trace=True)
        assert len(res.records) == len(res.rows) == K
        row = res.rows[-1]
        trace_row = sys.getsizeof(row) + sum(
            sys.getsizeof(getattr(row, f.name)) for f in fields(TraceRow)
            if type(getattr(row, f.name)) in (int, float))
        # x, g, Hg and z, and a, b, D, sigma, U, productive and |g|
        payload = 4 * n * 8 + 7 * 8
        assert held / K <= 1.25 * (payload + trace_row)

    def test_run_allocates_only_the_blocks_it_fills(self):
        n = 30
        prob = max_affine_ball(np.random.default_rng(52), n)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", n,
                                            schedule=Schedule("decay"),
                                            delta_term=0.2 * prob.R)
        res, held, peak = self._held_by_run(prob, config, 10**9, collect_trace=False)
        assert res.termination == "gap-threshold"
        K = len(res.records)
        assert K > 4 * BLOCK_ROWS
        payload = 4 * n * 8 + 7 * 8
        assert held <= 1.25 * K * payload
        # only the open block holds its steps' records as they are; keeping
        # every record would take about twice the payload
        assert peak <= 2 * K * payload


# The forward iteration as first written: every product formed where it is
# used (``<c, Hc>`` three times, ``g.Hg`` three times, ``<c, z>`` twice),
# ``|g|`` from ``np.linalg.norm`` and the rank-one term from ``np.outer``.
# ``run`` must reproduce it bit for bit.

def _reference_localizer(state):
    hc = state.H @ state.c
    z = state.x + hc
    D = state.Rsq - 2.0 * (state.sigma - float(state.c @ state.x)) + float(state.c @ hc)
    if D < 0.0:
        assert D >= -1e-12 * max(1.0, state.Rsq)
        D = 0.0
    return hc, z, D


def _reference_u(state, g, hg, hc, z, D):
    lead = float(g @ (state.x - z))
    if D == 0.0:
        return lead
    gHg = float(g @ hg)
    cHg = float(state.c @ hg)
    cHc = float(state.c @ hc)
    beta = state.sigma - float(state.c @ z)
    return lead + _xi_gram(D * gHg, -D * cHg, D * cHc, beta)


def _reference_advance(state, rec):
    g, hg, a, b = rec["g"], rec["Hg"], rec["a"], rec["b"]
    gnorm = float(np.linalg.norm(g))
    t = float(g @ hg)
    denom = 1.0 + b * t
    shift = a + 0.5 * b * rec["U"]
    H = state.H
    if b != 0.0:
        H = np.outer(hg, hg)
        H *= -(b / denom)
        H += state.H
    return SolverState(
        k=state.k + 1,
        x=state.x - (shift / denom) * hg,
        H=H,
        Rsq=state.Rsq + shift ** 2 * t / denom,
        c=state.c + a * g,
        sigma=state.sigma + a * float(g @ state.x),
        Gamma=state.Gamma + a * gnorm,
        R0=state.R0,
        x0=state.x0,
        log_det_H=state.log_det_H - math.log1p(b * t),
    )


def _reference_step(state, response, config, localizer):
    """``(new_state, record fields, terminal)`` of one iteration."""
    g = response.g.copy()
    hc, z, D = localizer
    hg = state.H @ g
    U = _reference_u(state, g, hg, hc, z, D)
    gnorm = float(np.linalg.norm(g))
    terminal = U <= config.delta_term * gnorm
    if terminal:
        a = b = 0.0
    else:
        t = float(g @ hg)
        dn = math.sqrt(t)
        R_k = math.sqrt(state.Rsq)
        a = (config.alpha(state.k) * state.R0
             + 0.5 * config.theta * config.gamma * R_k) / dn
        b = config.gamma / t
    record = dict(x=state.x.copy(), g=g, a=a, b=b, Hg=hg, z=z, D=D,
                  c=state.c.copy(), sigma=state.sigma, U=U,
                  productive=response.productive)
    if terminal:
        return state, record, True
    return _reference_advance(state, record), record, False


def _reference_sliding_gap(state, localizer):
    hc, z, D = localizer
    cn = nonneg_sqrt(float(state.c @ hc), max(1.0, float(state.c @ state.c)))
    return (state.sigma - float(state.c @ z) + math.sqrt(D) * cn) / state.Gamma


def _reference_run(prob, config, iters):
    """Records, trace rows (``wall_time_us`` zero) and final state of a
    ``_reference_step`` loop, with the composed oracle's interior test of a
    ball checked against ``np.linalg.norm``."""
    state = initial_state(prob)
    records, rows = [], []
    for _ in range(iters):
        resp = prob.oracle(state.x)
        if isinstance(prob.feasible, Ball):
            inside = float(np.linalg.norm(state.x - prob.feasible.center)) < prob.feasible.radius
            assert resp.productive == inside
        localizer = _reference_localizer(state)
        gap = None
        if state.k >= 1 and state.Gamma > 0.0:
            gap = _reference_sliding_gap(state, localizer)
        R_k = math.sqrt(state.Rsq)
        rows.append(TraceRow(
            k=state.k, variant=config.variant, productive=resp.productive,
            f_value=resp.f if resp.f is not None else prob.f_value(state.x),
            sliding_gap=gap, cert_gap=None, R_k=R_k,
            avrad=R_k * math.exp(state.log_det_H / (2.0 * state.x.shape[0])),
            Gamma_k=state.Gamma, wall_time_us=0.0))
        new_state, record, terminal = _reference_step(state, resp, config, localizer)
        records.append(record)
        if terminal:
            break
        state = new_state
    return records, rows, state


def _same(got, want):
    return got is None and want is None or np.array_equal(got, want)


class TestReferenceStep:
    """``run`` equals the reference loop above bit for bit: every recorded
    field, every trace row apart from ``wall_time_us``, and the final
    state."""

    @staticmethod
    def _assert_run_matches_reference(prob, config, iters):
        res = run(prob, config, iters)
        records, rows, state = _reference_run(prob, config, iters)
        assert len(res.records) == len(records) == len(res.rows) == len(rows)
        for got, want in zip(res.records, records):
            for name, value in want.items():
                assert _same(getattr(got, name), value), name
        for got, want in zip(res.rows, rows):
            for field in fields(TraceRow):
                if field.name != "wall_time_us":
                    assert _same(getattr(got, field.name),
                                 getattr(want, field.name)), field.name
        for field in fields(SolverState):
            assert np.array_equal(getattr(res.state, field.name),
                                  getattr(state, field.name)), field.name
        return res

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_matches_reference(self, family, variant):
        prob = FAMILIES[family](np.random.default_rng(52))
        config = StrategyConfig.for_variant(variant, prob.dim,
                                            schedule=Schedule("decay"))
        res = self._assert_run_matches_reference(prob, config, 60)
        assert len(res.records) == 60

    def test_gap_threshold_stop(self):
        prob = max_affine_ball(np.random.default_rng(10), 2)
        config = StrategyConfig.for_variant("ellipsoid-cert", 2, delta_term=0.25)
        res = self._assert_run_matches_reference(prob, config, 500)
        assert res.termination == "gap-threshold"

    def test_zero_subgradient_stop(self):
        prob = problem_from_dict({
            "kind": "max-of-affine", "dim": 2, "x0": [0.0, 0.0], "R": 1.0,
            "set": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
            "objective": {"rows": [{"a": [0.0, 0.0], "b": 1.0}]},
        })
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2,
                                            schedule=Schedule("decay"))
        res = self._assert_run_matches_reference(prob, config, 10)
        assert res.termination == "zero-subgradient"
