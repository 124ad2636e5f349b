import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from subell import certificates as certs
from subell.linalg import dual_norm, spd_inverse, symmetrize, top_eigenpair
from subell.cli import main
from subell.oracles import load_problem, problem_from_dict, save_problem
from subell.solver import (
    BLOCK_ROWS,
    VARIANTS,
    Schedule,
    StrategyConfig,
    avg_radius,
    delta_from_target,
    initial_state,
    reconstruct_state,
    run,
    sliding_gap,
    step,
)
from subell.support import HalfspaceCut, _cut_pair, _direction_pair, dual_multipliers

from helpers import (
    ball_support_with_cuts,
    localizer_support,
    max_affine_ball,
    saddle_problem,
    unit,
    vi_dual_gap,
    vi_problem,
)
from test_cli import _perfbench_module
from test_solver import FAMILIES


def _run(prob, variant="subgrad-ellipsoid", iters=16, schedule=None, delta=0.0):
    config = StrategyConfig.for_variant(
        variant, prob.dim,
        schedule=schedule or Schedule("decay"), delta_term=delta)
    return config, run(prob, config, iters)


def _xhat(cert, records):
    num = None
    den = 0.0
    for w, rec in zip(cert.weights, records):
        if rec.productive and w > 0:
            num = w * rec.x if num is None else num + w * rec.x
            den += w
    return num / den


class TestAugment:
    def test_single_step_with_slack_cut_gives_zero_multiplier(self):
        prob = max_affine_ball(np.random.default_rng(0), 2)
        _, res = _run(prob, iters=1)
        rec = res.records[0]
        s = -rec.a * rec.g
        mus, s0 = certs.augment(res.records, s)
        assert mus[0] == 0.0
        # with a zero multiplier the two support values coincide on the ball
        lhs = ball_support_with_cuts(mus, res.records, s, prob.x0, prob.R)
        rhs = float(s @ prob.x0) + prob.R * float(np.linalg.norm(s))
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_support_bound_on_short_runs(self):
        # max over the initial ball of the augmented model never exceeds the
        # support of the direction over the final localizer
        rng = np.random.default_rng(1)
        for trial in range(25):
            prob = max_affine_ball(rng, 2, R=1.0)
            _, res = _run(prob, iters=4)
            s = unit(rng, 2) * float(rng.uniform(0.2, 2.0))
            mus, _ = certs.augment(res.records, s)
            assert np.all(mus >= 0.0)
            lhs = ball_support_with_cuts(mus, res.records, s, prob.x0, prob.R)
            rhs = localizer_support(res.state, s)
            assert lhs <= rhs + 1e-9

    def test_lean_and_full_history_agree(self):
        # identical subgradients for every step (single affine row on a large
        # interior region), direction opposing the common subgradient
        a = np.array([0.6, -0.8])
        prob = problem_from_dict({
            "kind": "max-of-affine", "dim": 2, "x0": [0.0, 0.0], "R": 8.0,
            "set": {"type": "ball", "center": [0.0, 0.0], "radius": 7.9},
            "objective": {"rows": [{"a": a.tolist(), "b": 0.0}]},
        })
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2,
                                            schedule=Schedule("const", 100))
        res = run(prob, config, 5)
        assert all(np.array_equal(r.g, a) for r in res.records)
        # from the last record's replayed operator, or from the final one
        mus_record, _ = certs.augment(res.records, -a)
        mus_final, _ = certs.augment(res.records, -a, final_operator=res.state.H)
        assert np.abs(mus_record - mus_final).max() <= 1e-10

    def test_lean_and_full_history_agree_on_generic_run(self):
        rng = np.random.default_rng(2)
        prob = max_affine_ball(rng, 3)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 20)
        s = unit(rng, 3)
        mus_record, _ = certs.augment(res.records, s)
        mus_final, _ = certs.augment(res.records, s, final_operator=res.state.H)
        assert np.abs(mus_record - mus_final).max() <= 1e-10


class TestCertifyFromPreliminary:
    def test_single_step_gap_equals_sliding_gap(self):
        prob = max_affine_ball(np.random.default_rng(3), 3)
        _, res = _run(prob, iters=1)
        cert = certs.certify_from_preliminary(res.records)
        assert cert.weights[0] == pytest.approx(res.records[0].a, rel=1e-14)
        d = certs.gap(cert, res.records, prob.x0, prob.R)
        assert d == pytest.approx(sliding_gap(res.state), rel=1e-12)
        assert d == pytest.approx(prob.R, rel=1e-12)  # one step reaches the ball edge

    def test_gap_dominated_by_sliding_gap(self):
        rng = np.random.default_rng(4)
        for variant in ("subgradient", "ellipsoid-cert", "subgrad-ellipsoid"):
            for _ in range(8):
                prob = max_affine_ball(rng, int(rng.integers(2, 5)))
                _, res = _run(prob, variant=variant, iters=int(rng.integers(2, 30)))
                cert = certs.certify_from_preliminary(res.records)
                d = certs.gap(cert, res.records, prob.x0, prob.R)
                assert d <= sliding_gap(res.state) + 1e-9
                assert cert.gamma_weighted >= res.state.Gamma - 1e-12
                assert np.all(cert.weights >= 0.0)

    def test_terminal_certificate_meets_threshold(self):
        prob = max_affine_ball(np.random.default_rng(5), 2)
        delta = 0.1 * prob.R
        config = StrategyConfig.for_variant("ellipsoid-cert", 2, delta_term=delta)
        res = run(prob, config, 2000)
        assert res.termination == "gap-threshold"
        cert = certs.certify_from_preliminary(res.records, terminal=True)
        assert cert.weights[-1] == 1.0
        d = certs.gap(cert, res.records, prob.x0, prob.R)
        assert d <= delta + 1e-9

    def test_records_of_a_step_loop(self):
        # a plain list of records from a bare ``step`` loop, which cannot
        # replay an operator, certifies as the run that takes the same steps
        prob = max_affine_ball(np.random.default_rng(22), 3)
        config, res = _run(prob, iters=20)
        state, records = initial_state(prob), []
        for _ in range(20):
            state, rec, _ = step(state, prob.oracle(state.x), config)
            records.append(rec)
        with pytest.raises(ValueError, match="replay"):
            records[-1].H
        cert = certs.certify_from_preliminary(records)
        want = certs.certify_from_preliminary(res.records)
        assert np.array_equal(cert.weights, want.weights)

    def test_rejects_empty_or_weightless_history(self):
        prob = max_affine_ball(np.random.default_rng(6), 2)
        config = StrategyConfig.for_variant("ellipsoid", 2)
        res = run(prob, config, 5)
        with pytest.raises(ValueError, match="min-width"):
            certs.certify_from_preliminary(res.records)
        with pytest.raises(ValueError, match="empty"):
            certs.certify_from_preliminary([])


class TestStandardEllipsoidCertificate:
    def test_min_width_direction_bound(self):
        prob = max_affine_ball(np.random.default_rng(7), 2)
        config = StrategyConfig.for_variant("ellipsoid", 2)
        res = run(prob, config, 30)
        report = certs.certify_standard_ellipsoid(
            res.records, res.state, prob.feasible.diameter, prob.inner_radius)
        # width of the final ellipsoid along the reported direction
        width = 2.0 * math.sqrt(res.state.Rsq) * dual_norm(res.state.H,
                                                           report.direction)
        assert width <= report.rho + 1e-12
        assert report.rho == pytest.approx(2.0 * avg_radius(res.state), rel=1e-14)

    def test_end_to_end_gap_bound(self):
        prob = max_affine_ball(np.random.default_rng(8), 2)
        config = StrategyConfig.for_variant("ellipsoid", 2)
        res = run(prob, config, 30)
        report = certs.certify_standard_ellipsoid(
            res.records, res.state, prob.feasible.diameter, prob.inner_radius)
        cert = report.certificate
        rho, D, r = report.rho, prob.feasible.diameter, prob.inner_radius
        assert rho < r and report.gap_bound is not None
        assert cert.gamma_weighted >= (r - rho) / D - 1e-12
        d = certs.gap(cert, res.records, prob.x0, prob.R)
        assert d <= report.gap_bound + 1e-9
        assert report.gap_bound == pytest.approx(2 * rho * D / (r - rho), rel=1e-14)
        # the weighted model stays within twice the width over the initial ball
        lhs = ball_support_with_cuts(cert.weights, res.records,
                                     np.zeros(prob.dim), prob.x0, prob.R)
        assert lhs <= 2.0 * rho + 1e-9

    def test_vacuous_bound_reported_not_raised(self):
        prob = max_affine_ball(np.random.default_rng(9), 2)
        config = StrategyConfig.for_variant("ellipsoid", 2)
        res = run(prob, config, 2)  # too early: rho >= r
        report = certs.certify_standard_ellipsoid(
            res.records, res.state, prob.feasible.diameter, prob.inner_radius)
        assert report.rho >= prob.inner_radius
        assert report.gap_bound is None


class TestGapAndResidual:
    def test_single_step_center_gap_is_radius(self):
        prob = max_affine_ball(np.random.default_rng(10), 3, R=1.7)
        _, res = _run(prob, iters=1)
        cert = certs.Semicertificate.from_weights(np.array([1.0]), res.records[:1])
        # the lone test point is the ball center, so the gap is exactly R
        assert certs.gap(cert, res.records[:1], prob.x0, prob.R) == pytest.approx(
            1.7, rel=1e-14)

    def test_gap_and_residual_scale_invariant(self):
        rng = np.random.default_rng(11)
        prob = max_affine_ball(rng, 3)
        _, res = _run(prob, iters=12)
        w = rng.uniform(0.0, 1.0, len(res.records))
        c1 = certs.Semicertificate.from_weights(w, res.records)
        c2 = certs.Semicertificate.from_weights(7.3 * w, res.records)
        assert certs.gap(c1, res.records, prob.x0, prob.R) == pytest.approx(
            certs.gap(c2, res.records, prob.x0, prob.R), rel=1e-13)
        assert certs.residual(c1, res.records, prob.x0, prob.R) == pytest.approx(
            certs.residual(c2, res.records, prob.x0, prob.R), rel=1e-13)

    def test_gap_matches_sampling_maximum(self):
        rng = np.random.default_rng(12)
        prob = max_affine_ball(rng, 3)
        _, res = _run(prob, iters=10)
        w = rng.uniform(0.1, 1.0, len(res.records))
        cert = certs.Semicertificate.from_weights(w, res.records)
        got = certs.gap(cert, res.records, prob.x0, prob.R)
        dirs = rng.standard_normal((200_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = prob.R * rng.uniform(0, 1, (200_000, 1)) ** (1 / 3)
        xs = prob.x0 + dirs * radii
        agg = np.zeros(3)
        const = 0.0
        for wi, rec in zip(w, res.records):
            agg += wi * rec.g
            const += wi * float(rec.g @ rec.x)
        vals = (const - xs @ agg) / cert.gamma_weighted
        best = float(vals.max())
        xext = prob.x0 - prob.R * agg / np.linalg.norm(agg)
        best = max(best, (const - float(xext @ agg)) / cert.gamma_weighted)
        assert best <= got + 1e-9
        assert got - best <= 1e-3 * max(1.0, got)

    def test_residual_identity_when_all_steps_productive(self):
        prob = max_affine_ball(np.random.default_rng(13), 2, radius=0.45, R=1.0)
        _, res = _run(prob, iters=6, schedule=Schedule("const", 200))
        assert all(rec.productive for rec in res.records)
        w = np.ones(len(res.records))
        cert = certs.Semicertificate.from_weights(w, res.records)
        g = certs.gap(cert, res.records, prob.x0, prob.R)
        r = certs.residual(cert, res.records, prob.x0, prob.R)
        assert r == pytest.approx(g * cert.gamma_weighted / cert.productive_weight,
                                  rel=1e-13)

    def test_residual_bounds_functional_error(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            prob = max_affine_ball(rng, int(rng.integers(2, 5)), fstar=float(rng.uniform(-1, 1)))
            _, res = _run(prob, iters=40, schedule=Schedule("const", 40))
            cert = certs.certify_from_preliminary(res.records)
            eps = certs.residual(cert, res.records, prob.x0, prob.R)
            xhat = _xhat(cert, res.records)
            assert prob.f_value(xhat) - prob.fstar >= -1e-9
            assert prob.f_value(xhat) - prob.fstar <= eps + 1e-9
            best = min(prob.f_value(rec.x) for rec in res.records if rec.productive)
            assert best - prob.fstar <= eps + 1e-9

    def test_residual_bounds_vi_dual_gap(self):
        rng = np.random.default_rng(15)
        prob = vi_problem(rng, 2, skew=False)
        _, res = _run(prob, iters=64, schedule=Schedule("const", 64))
        cert = certs.certify_from_preliminary(res.records)
        eps = certs.residual(cert, res.records, prob.x0, prob.R)
        xhat = _xhat(cert, res.records)
        assert vi_dual_gap(prob, xhat) <= eps + 1e-6  # grid undershoots the max

    def test_residual_bounds_saddle_primal_dual_gap(self):
        rng = np.random.default_rng(16)
        prob = saddle_problem(rng, 2, 2)
        _, res = _run(prob, iters=64, schedule=Schedule("const", 64))
        cert = certs.certify_from_preliminary(res.records)
        eps = certs.residual(cert, res.records, prob.x0, prob.R)
        xhat = _xhat(cert, res.records)
        pd_gap = prob.saddle_primal_dual_gap(xhat)
        assert pd_gap >= -1e-12
        assert pd_gap <= eps + 1e-9


class TestEndToEndTarget:
    def test_epsilon_target_is_met_by_terminal_certificate(self):
        # the full pipeline promise: ask for residual <= eps, terminate at
        # the derived gap threshold eps*r/(eps+V), convert, and the measured
        # residual of the terminal certificate is within eps
        from subell.solver import delta_from_target
        rng = np.random.default_rng(40)
        for eps in (0.5, 0.1, 0.02):
            prob = max_affine_ball(rng, 3, fstar=0.25)
            delta = delta_from_target(eps, prob.inner_radius,
                                      prob.variation_bound)
            config = StrategyConfig.for_variant("ellipsoid-cert", 3,
                                                delta_term=delta)
            res = run(prob, config, 5000)
            assert res.termination == "gap-threshold"
            cert = certs.certify_from_preliminary(res.records, terminal=True)
            d = certs.gap(cert, res.records, prob.x0, prob.R)
            assert d <= delta + 1e-9
            measured = certs.residual(cert, res.records, prob.x0, prob.R)
            assert measured <= eps + 1e-9
            xhat = _xhat(cert, res.records)
            assert prob.f_value(xhat) - prob.fstar <= eps + 1e-9

    def test_long_horizon_stability(self):
        # no breakdown, positive localizer radii and nonnegative supports
        # over a long combined-method run at moderate dimension
        rng = np.random.default_rng(41)
        prob = max_affine_ball(rng, 50, m=12)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 50,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 1000, collect_trace=False)
        assert res.termination == "max-iter"
        assert all(rec.D > 0 and rec.U >= -1e-12 for rec in res.records)
        assert np.array_equal(res.state.H, res.state.H.T)


class TestResidualBound:
    def test_edge_values(self):
        assert certs.residual_bound_from_gap(0.0, 0.5, 3.0) == 0.0
        assert certs.residual_bound_from_gap(0.25, 0.5, 3.0) == pytest.approx(3.0)
        with pytest.raises(ValueError, match="vacuous"):
            certs.residual_bound_from_gap(0.5, 0.5, 3.0)

    def test_end_to_end_gap_to_residual_conversion(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            prob = max_affine_ball(rng, 3)
            _, res = _run(prob, iters=200, schedule=Schedule("const", 200))
            cert = certs.certify_from_preliminary(res.records)
            d = certs.gap(cert, res.records, prob.x0, prob.R)
            if d < prob.inner_radius:
                eps = certs.residual(cert, res.records, prob.x0, prob.R)
                bound = certs.residual_bound_from_gap(
                    d, prob.inner_radius, prob.variation_bound)
                assert eps <= bound + 1e-9


class TestNonproductiveTerminal:
    def test_terminal_weight_on_nonproductive_step_is_flagged(self):
        # start outside the feasible set and terminate immediately: the unit
        # terminal weight lands on a separator step, so the weights are a
        # semicertificate but not a certificate
        prob = problem_from_dict({
            "kind": "max-of-affine", "dim": 2, "x0": [0.0, 0.0], "R": 2.0,
            "set": {"type": "ball", "center": [1.2, 0.0], "radius": 0.5},
            "objective": {"rows": [{"a": [1.0, 0.0], "b": 0.0}]},
        })
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2,
                                            schedule=Schedule("decay"),
                                            delta_term=prob.R)
        res = run(prob, config, 5)
        assert res.termination == "gap-threshold"
        assert not res.records[-1].productive
        cert = certs.certify_from_preliminary(res.records, terminal=True)
        assert not cert.is_certificate
        assert cert.gamma_weighted > 0.0
        assert certs.gap(cert, res.records, prob.x0, prob.R) <= prob.R + 1e-9
        with pytest.raises(ValueError, match="productive"):
            certs.residual(cert, res.records, prob.x0, prob.R)


class TestSemicertificateValidation:
    def test_rejects_negative_weights(self):
        prob = max_affine_ball(np.random.default_rng(18), 2)
        _, res = _run(prob, iters=3)
        with pytest.raises(ValueError, match="nonnegative"):
            certs.Semicertificate.from_weights(np.array([1.0, -0.1, 0.0]),
                                               res.records)

    def test_rejects_length_mismatch(self):
        prob = max_affine_ball(np.random.default_rng(19), 2)
        _, res = _run(prob, iters=3)
        with pytest.raises(ValueError, match="weights"):
            certs.Semicertificate.from_weights(np.ones(2), res.records)


class TestHistoryOrList:
    """Every reader here takes a run's ``History`` or a plain list of
    records through one conversion, with bit-identical results."""

    @staticmethod
    def _same(got, want):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("variant", ["subgrad-ellipsoid", "ellipsoid-cert"])
    def test_history_and_list_give_identical_results(self, variant):
        prob = max_affine_ball(np.random.default_rng(21), 4)
        _, res = _run(prob, variant, iters=2 * BLOCK_ROWS + 12)  # three blocks
        listed = list(res.records)
        s = -res.state.c
        for form in ({}, {"final_operator": res.state.H}):
            for got, want in zip(certs.augment(listed, s, **form),
                                 certs.augment(res.records, s, **form)):
                self._same(got, want)
        for k in (1, BLOCK_ROWS - 1, len(listed)):
            want = certs.certify_from_preliminary(res.records[:k])
            got = certs.certify_from_preliminary(listed[:k])
            self._same(got.weights, want.weights)
            assert (got.gamma_weighted, got.productive_weight) \
                == (want.gamma_weighted, want.productive_weight)
            for measure in (certs.gap, certs.residual):
                self._same(measure(got, listed[:k], prob.x0, prob.R),
                           measure(want, res.records[:k], prob.x0, prob.R))

    def test_empty_list(self):
        cert = certs.Semicertificate.from_weights(np.zeros(0), [])
        assert (cert.gamma_weighted, cert.productive_weight) == (0.0, 0.0)
        with pytest.raises(ValueError, match="empty"):
            certs.certify_from_preliminary([])


class TestScaleFreeTwoCutRegressions:
    """Cases where absolute tolerances in the two-cut kernel broke a stated
    claim although the metric was healthy: a well-conditioned pair of cuts
    with very different H-norms, and D-scaled Gram values far below 1e-12."""

    @pytest.mark.parametrize("make", [
        lambda: saddle_problem(np.random.default_rng(0), 1, 1),
        lambda: vi_problem(np.random.default_rng(0), 2),
    ], ids=["saddle-1x1", "vi-2"])
    def test_preliminary_certificate_on_late_prefixes(self, make):
        prob = make()
        _, res = _run(prob, variant="ellipsoid-cert", iters=200)
        for k in range(150, 201, 10):
            cert = certs.certify_from_preliminary(res.records[:k])
            got = certs.gap(cert, res.records[:k], prob.x0, prob.R)
            state_k = reconstruct_state(prob, res.records, k, res.state)
            assert got <= sliding_gap(state_k) + 1e-9, k

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_width_gap_within_bound(self, seed):
        prob = max_affine_ball(np.random.default_rng(seed), 2)
        _, res = _run(prob, variant="ellipsoid", iters=140)
        report = certs.certify_standard_ellipsoid(
            res.records, res.state, prob.feasible.diameter, prob.inner_radius)
        got = certs.gap(report.certificate, res.records, prob.x0, prob.R)
        assert report.gap_bound is not None
        assert got <= report.gap_bound + 1e-9


def _reference_augment(records, s_final, final_operator):
    """The backward pass with every operator formed as a matrix: ``H_i``
    rebuilt from its successor by inverting the rank-one update, starting
    from ``final_operator``, and the multipliers from
    ``dual_multipliers(D_i H_i, ...)``.  A direction that cancels to
    ``|s| <= CANCELLED (|s_k| + sum mu_i |g_i|)`` is rounding noise and set
    to zero, as in the sweep."""
    mus = np.zeros(len(records))
    s = np.asarray(s_final, dtype=float).copy()
    mag = float(np.linalg.norm(s))
    H_next = final_operator
    for i in reversed(range(len(records))):
        rec = records[i]
        if rec.b == 0.0:
            H_i = H_next
        else:
            denom = 1.0 + rec.b * float(rec.g @ rec.Hg)
            H_i = symmetrize(H_next + (rec.b / denom) * np.outer(rec.Hg, rec.Hg))
        cut_model = HalfspaceCut(rec.c, rec.sigma - float(rec.c @ rec.z))
        cut_step = HalfspaceCut(rec.g, float(rec.g @ (rec.x - rec.z)))
        _, mu = dual_multipliers(rec.D * H_i, s, cut_model, cut_step)
        mus[i] = mu
        if mu != 0.0:
            s = s - mu * rec.g
            mag += mu * float(np.linalg.norm(rec.g))
            if np.linalg.norm(s) <= certs.CANCELLED * mag:
                s = np.zeros_like(s)
        H_next = H_i
    return mus, s


_fraction = np.vectorize(Fraction, otypes=[object])


def _exact_augment(records, s_final):
    """The backward pass in exact rational arithmetic, taking the records'
    floats as exact: ``H_i`` replayed from ``H_0 = I``, and ``H_i s``, ``s``
    and the Gram scalars exact; only the scalars handed to the two-cut
    kernel are rounded."""
    H = _fraction(np.eye(len(s_final)))
    operators = []
    for rec in records:
        operators.append(H)
        if rec.b != 0.0:
            hg, b = _fraction(rec.Hg), Fraction(rec.b)
            H = H - np.outer(hg, hg) * (b / (1 + b * (_fraction(rec.g) @ hg)))
    mus = np.zeros(len(records))
    s = _fraction(np.asarray(s_final, dtype=float))
    for i in reversed(range(len(records))):
        rec, H = records[i], operators[i]
        c, g = _fraction(rec.c), _fraction(rec.g)
        Hs, Hc, Hg = H @ s, H @ c, H @ g
        grams = (s @ Hs, c @ Hs, g @ Hs, c @ Hc, g @ Hg, c @ Hg)
        sHs, a1Hs, a2Hs, *cuts = (float(Fraction(rec.D) * q) for q in grams)
        _, mu = _direction_pair(sHs, a1Hs, a2Hs, _cut_pair(
            *cuts, rec.sigma - float(rec.c @ rec.z), float(rec.g @ (rec.x - rec.z))))
        mus[i] = mu
        s = s - Fraction(mu) * g
    return mus


def _certificate_weights(augment, records, variant, state):
    """Preliminary or min-width certificate weights of the records, built on
    the given backward pass (``augment(records, s) -> mu``)."""
    if variant == "ellipsoid":
        _, d = top_eigenpair(spd_inverse(state.H))
        return augment(records, d) + augment(records, -d)
    prelim = np.array([rec.a for rec in records])
    return prelim + augment(records, -sum(rec.a * rec.g for rec in records))


def _assert_agrees(got, want, exact, gap_of=None):
    """The rules for the matrix-free pass against the matrix pass ``want``:
    the same support, max|got - want| <= 1e-12 max(want) and, for
    certificates (``gap_of``), the gap within 1e-12 relative.  Per-weight
    relative agreement is not asked: a weight far below the largest one
    carries the rounding of the whole pass.

    Where the two differ by more, the matrix pass itself is that far from
    the exact pass (``exact()``, the ill-conditioned multiplier problems of
    a near-collapsed metric or of a direction in the span of both cuts); the
    matrix-free pass must then be as close to the exact pass as the matrix
    pass, up to a factor 4."""
    assert np.array_equal(got > 0.0, want > 0.0)
    scale = want.max(initial=0.0)
    if np.abs(got - want).max(initial=0.0) <= 1e-12 * scale:
        if gap_of is not None:
            assert abs(gap_of(got) - gap_of(want)) <= 1e-12 * abs(gap_of(want))
        return
    ref = exact()
    assert (np.abs(got - ref).max()
            <= 1e-12 * scale + 4.0 * np.abs(want - ref).max())


def _gap_of(records, prob):
    return lambda w: certs.gap(certs.Semicertificate.from_weights(w, records),
                               records, prob.x0, prob.R)


def _perfbench_problem(n):
    """Problem 0 of seed 1 from the benchmark's generator."""
    return problem_from_dict(_perfbench_module("generate").max_affine_ball(1, n, 0))


def _checkpoint_states(prob, res, ks):
    """The states at the checkpoints ``ks``, chained as ``subell certify``
    replays them."""
    state = None
    for k in ks:
        state = reconstruct_state(prob, res.records, k, res.state, start=state)
        yield state


def _certify_at(prob, variant, records, state_k):
    """The certificate ``subell certify`` builds from the first k records,
    given the state ``state_k`` after them."""
    head = records[:state_k.k]
    if variant == "ellipsoid":
        return certs.certify_standard_ellipsoid(
            head, state_k, prob.feasible.diameter, prob.inner_radius).certificate
    return certs.certify_from_preliminary(head)


def _reference_mu(final_operator):
    return lambda records, s: _reference_augment(records, s, final_operator)[0]


class TestMatrixFreeBackwardPass:
    """``augment`` carries ``H_i s`` instead of forming ``H_i``; the matrix
    pass above is its reference, started from the checkpoint's operator as
    ``augment`` is, or from the last record's replayed operator."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_matrix_pass(self, family, variant):
        rng = np.random.default_rng(60)
        prob = FAMILIES[family](rng)
        config = StrategyConfig.for_variant(variant, prob.dim,
                                            schedule=Schedule("decay"))
        res = run(prob, config, 60)
        for state_k in _checkpoint_states(prob, res, [1, 30, 60]):
            head, reference = res.records[:state_k.k], _reference_mu(state_k.H)
            directions = [unit(rng, prob.dim)]
            if variant != "ellipsoid":
                directions.append(-sum(r.a * r.g for r in head))
            for s in directions:
                want = reference(head, s)
                for op in (None, state_k.H):
                    got, _ = certs.augment(head, s, final_operator=op)
                    _assert_agrees(got, want, lambda: _exact_augment(head, s))
            _assert_agrees(
                _certify_at(prob, variant, res.records, state_k).weights,
                _certificate_weights(reference, head, variant, state_k),
                lambda: _certificate_weights(_exact_augment, head, variant, state_k),
                _gap_of(head, prob))

    def test_terminal_certificate_from_replayed_operator(self):
        prob = max_affine_ball(np.random.default_rng(5), 3)
        config = StrategyConfig.for_variant("ellipsoid-cert", 3,
                                            delta_term=0.1 * prob.R)
        res = run(prob, config, 2000)
        assert res.termination == "gap-threshold"
        # the operator before the terminal record, replayed from scratch
        H_last = reconstruct_state(prob, res.records, len(res.records) - 1,
                                   res.state).H
        assert np.array_equal(H_last, res.state.H)
        cert = certs.certify_from_preliminary(res.records, terminal=True)
        head, s = res.records[:-1], -res.records[-1].g
        _assert_agrees(
            cert.weights, np.append(_reference_mu(H_last)(head, s), 1.0),
            lambda: np.append(_exact_augment(head, s), 1.0),
            _gap_of(res.records, prob))

    @pytest.mark.parametrize("n, variant, ks", [
        (100, "subgrad-ellipsoid", list(range(250, 2001, 250))),
        (60, "ellipsoid", [2 ** j for j in range(11)] + [2000]),
    ], ids=["certify-n100", "certify-minwidth-n60"])
    def test_benchmark_problems(self, n, variant, ks):
        # the benchmark's certify commands as the CLI runs them, against
        # the matrix pass; the exact pass would take minutes here, and the
        # rules hold without it
        prob = _perfbench_problem(n)
        config = StrategyConfig.for_variant(variant, n, schedule=Schedule("decay"))
        res = run(prob, config, 2000, collect_trace=False)
        for state_k in _checkpoint_states(prob, res, ks):
            head = res.records[:state_k.k]
            _assert_agrees(
                _certify_at(prob, variant, res.records, state_k).weights,
                _certificate_weights(_reference_mu(state_k.H), head, variant, state_k),
                lambda: pytest.fail("outside the 1e-12 rules"),
                _gap_of(head, prob))


def _per_checkpoint_augment(records, s_final, final_operator):
    """The matrix-free backward pass as it ran before the sweep, once per
    direction: ``v = H_i s`` from ``final_operator`` stepped back record by
    record, and the multipliers from the two-cut kernel on the Gram scalars
    of the products ``D (v, z - x, Hg)``.  A direction that cancels to
    ``|s| <= CANCELLED (|s_k| + sum mu_i |g_i|)`` is set to zero, as in the
    sweep."""

    def step_back(v, rec, s):
        if rec.b == 0.0:
            return v
        beta = rec.b / (1.0 + rec.b * float(rec.g @ rec.Hg))
        return v + (beta * float(rec.Hg @ s)) * rec.Hg

    mus = np.zeros(len(records))
    s = np.asarray(s_final, dtype=float).copy()
    if not records:
        return mus
    mag = float(np.linalg.norm(s))
    v = step_back(final_operator @ s, records[-1], s)
    for i in reversed(range(len(records))):
        rec = records[i]
        Hs, Hc, Hg = rec.D * v, rec.D * (rec.z - rec.x), rec.D * rec.Hg
        _, mu = _direction_pair(
            float(s @ Hs), float(rec.c @ Hs), float(rec.g @ Hs),
            _cut_pair(float(rec.c @ Hc), float(rec.g @ Hg), float(rec.c @ Hg),
                      rec.sigma - float(rec.c @ rec.z), float(rec.g @ (rec.x - rec.z))))
        mus[i] = mu
        if mu != 0.0:
            s, v = s - mu * rec.g, v - mu * rec.Hg
            mag += mu * float(np.linalg.norm(rec.g))
            if np.linalg.norm(s) <= certs.CANCELLED * mag:
                s, v = np.zeros_like(s), np.zeros_like(v)
        if i > 0:
            v = step_back(v, records[i - 1], s)
    return mus


def _per_checkpoint_certificates(prob, res, variant, ks):
    """Each checkpoint's weights as ``subell certify`` built them before the
    sweep: the states replayed in one chain, and one backward pass per
    direction, started from the checkpoint's operator."""
    terminal = res.termination in ("gap-threshold", "zero-subgradient")
    weights = []
    for k, state in zip(ks, _checkpoint_states(prob, res, ks)):
        head = res.records[:k]

        def mu(records, s, H=state.H):
            return _per_checkpoint_augment(records, s, H)

        if terminal and len(head) == len(res.records):
            weights.append(np.append(mu(head[:-1], -head[-1].g), 1.0))
        else:
            weights.append(_certificate_weights(mu, head, variant, state))
    return weights


# (problem, variant, cadence, iterations, epsilon): both benchmark problems
# on both pathways, a terminal run and a saddle problem
SWEEP_CASES = {
    "n100-preliminary": (lambda: _perfbench_problem(100), "subgrad-ellipsoid", "250",
                         2000, None),
    "n100-min-width": (lambda: _perfbench_problem(100), "ellipsoid", "pow2", 2000, None),
    "n60-preliminary": (lambda: _perfbench_problem(60), "subgrad-ellipsoid", "250",
                        2000, None),
    "n60-min-width": (lambda: _perfbench_problem(60), "ellipsoid", "pow2", 2000, None),
    "n10-terminal": (lambda: _perfbench_problem(10), "ellipsoid-cert", "pow2", 20000, 0.3),
    "saddle-2x2": (lambda: saddle_problem(np.random.default_rng(16), 2, 2),
                   "ellipsoid-cert", "pow2", 200, None),
}


class TestOneSweep:
    """``subell certify`` builds every checkpoint's certificate from one
    backward sweep; the per-checkpoint passes it replaced are the reference."""

    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_certify_matches_per_checkpoint_passes(self, tmp_path, case):
        make, variant, cadence, iters, epsilon = SWEEP_CASES[case]
        path = tmp_path / "problem.json"
        save_problem(make(), path)
        prob = load_problem(path)
        args = ["certify", "--problem", str(path), "--variant", variant,
                "--iters", str(iters), "--cadence", cadence,
                "--out", str(tmp_path / "c.csv")]
        delta = 0.0
        if epsilon is not None:
            args += ["--epsilon", str(epsilon)]
            delta = delta_from_target(epsilon, prob.inner_radius, prob.variation_bound)
        assert main(args) == 0
        dump = json.loads((tmp_path / "c.csv.certs.json").read_text(encoding="utf-8"))
        config = StrategyConfig.for_variant(variant, prob.dim, schedule=Schedule("decay"),
                                            delta_term=delta)
        res = run(prob, config, iters, collect_trace=False)
        checkpoints = dump["checkpoints"]
        if epsilon is not None:
            assert checkpoints[-1]["pathway"] == "terminal"
        wants = _per_checkpoint_certificates(prob, res, variant,
                                             [cp["k"] for cp in checkpoints])
        for cp, want in zip(checkpoints, wants):
            head = res.records[:cp["k"]]
            got = np.array(cp["weights"])
            _assert_agrees(got, want, lambda: pytest.fail("outside the 1e-12 rules"),
                           _gap_of(head, prob))
            assert cp["gap"] == _gap_of(head, prob)(got)

    def test_column_joining_mid_sweep_equals_its_own_pass(self):
        rng = np.random.default_rng(3)
        prob = max_affine_ball(rng, 5)
        res = run(prob, StrategyConfig.for_variant("subgrad-ellipsoid", 5,
                                                   schedule=Schedule("decay")), 80)
        records = res.records
        state_37, state_60 = _checkpoint_states(prob, res, [37, 60])
        starts = [certs.Checkpoint.at(records, 80, certs.PRELIMINARY),
                  certs.Checkpoint.at(records, 37, certs.MIN_WIDTH, state_37),
                  certs.Checkpoint.at(records, 60, certs.PRELIMINARY)]
        columns = [col for start in starts for col in start.columns]
        mus, _ = certs.augment(records, columns=columns)
        assert mus.shape == (4, 80)
        row = 0
        for start in starts:
            alone, _ = certs.augment(records[:start.k], columns=start.columns)
            for j in range(len(start.columns)):
                assert not np.any(mus[row + j, start.k:])
                _assert_agrees(mus[row + j, :start.k], alone[j],
                               lambda: pytest.fail("outside the 1e-12 rules"))
            row += len(start.columns)
        # the one-checkpoint entry points are the same sweep
        joint = certs.certify_checkpoints(records, starts)
        assert np.array_equal(
            certs.certify_standard_ellipsoid(records[:37], state_37, 1.0, 0.5)
            .certificate.weights, certs.certify_checkpoints(records, starts[1:2])[0].weights)
        _assert_agrees(joint[0].weights,
                       certs.certify_from_preliminary(records).weights,
                       lambda: pytest.fail("outside the 1e-12 rules"))

    @pytest.mark.parametrize("variant", ["subgrad-ellipsoid", "ellipsoid"])
    def test_certify_run_rows(self, variant):
        # each row of the entry point holds the certificate of the
        # one-checkpoint route, with the measures ``gap`` and ``residual``
        # give and the min-width rho and bound of ``certify_standard_ellipsoid``
        prob = max_affine_ball(np.random.default_rng(7), 2)
        _, res = _run(prob, variant, iters=140)
        for state in _checkpoint_states(prob, res, [70, 140]):
            head = res.records[:state.k]
            if variant == "ellipsoid":
                start = certs.Checkpoint.at(res.records, state.k, certs.MIN_WIDTH, state)
                report = certs.certify_standard_ellipsoid(
                    head, state, prob.feasible.diameter, prob.inner_radius)
                want, want_bound = report.certificate, report.gap_bound
                assert start.rho == report.rho
            else:
                start = certs.Checkpoint.at(res.records, state.k, certs.PRELIMINARY)
                want, want_bound = certs.certify_from_preliminary(head), None
            (cp, cert, gap, residual, bound), = certs.certify_run(prob, res.records, [start])
            assert cp is start and np.array_equal(cert.weights, want.weights)
            assert gap == certs.gap(want, head, prob.x0, prob.R)
            assert residual == (certs.residual(want, head, prob.x0, prob.R)
                                if want.is_certificate else None)
            assert bound == want_bound

    def test_preliminary_start_needs_no_operator(self):
        # H_{k-1} c_{k-1} = z - x of record k-1, so that record gives the
        # start H_{k-1} s of s = -c_k that the operator would, at every k
        # including the last
        rng = np.random.default_rng(4)
        prob = max_affine_ball(rng, 4)
        res = run(prob, StrategyConfig.for_variant("ellipsoid-cert", 4), 50)
        for k in (1, 17, 49, 50):
            before, after = (reconstruct_state(prob, res.records, j, res.state)
                             for j in (k - 1, k))
            (k_col, s, v), = certs.Checkpoint.at(res.records, k, certs.PRELIMINARY).columns
            assert k_col == k and np.array_equal(s, -after.c)
            want = before.H @ s
            assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()

    def test_terminal_run_of_one_record(self, tmp_path):
        # the first test point already meets the gap test: the terminal
        # certificate has an empty head and unit weight on the one record
        prob = max_affine_ball(np.random.default_rng(20), 2)
        config = StrategyConfig.for_variant("subgrad-ellipsoid", 2, delta_term=2.0 * prob.R)
        res = run(prob, config, 5)
        assert res.termination == "gap-threshold" and len(res.records) == 1
        cert = certs.certify_from_preliminary(res.records, terminal=True)
        assert cert.weights.tolist() == [1.0]
        path = tmp_path / "problem.json"
        save_problem(prob, path)
        out = tmp_path / "c.csv"
        assert main(["certify", "--problem", str(path), "--delta", str(2.0 * prob.R),
                     "--iters", "5", "--out", str(out)]) == 0
        dump = json.loads((tmp_path / "c.csv.certs.json").read_text(encoding="utf-8"))
        assert [(cp["k"], cp["pathway"], cp["weights"]) for cp in dump["checkpoints"]] \
            == [(1, "terminal", [1.0])]

    def test_record_with_zero_radius_gets_no_multiplier(self):
        rng = np.random.default_rng(5)
        prob = max_affine_ball(rng, 3)
        res = run(prob, StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                                   schedule=Schedule("decay")), 40)
        s = -res.state.c
        for i in (0, 20, 39):
            records = list(res.records)
            records[i] = dataclasses.replace(records[i], D=0.0)
            got, _ = certs.augment(records, s, final_operator=res.state.H)
            assert got[i] == 0.0
            _assert_agrees(got, _per_checkpoint_augment(records, s, res.state.H),
                           lambda: pytest.fail("outside the 1e-12 rules"))

    def test_empty_head(self):
        rng = np.random.default_rng(6)
        s = unit(rng, 3)
        mus, s0 = certs.augment([], s)
        assert mus.shape == (0,) and np.array_equal(s0, s)
        prob = max_affine_ball(rng, 3)
        res = run(prob, StrategyConfig.for_variant("subgrad-ellipsoid", 3,
                                                   schedule=Schedule("decay")), 10)
        mus, S0 = certs.augment(res.records, columns=[(0, s, res.state.H @ s)])
        assert mus.shape == (1, 10) and not np.any(mus) and np.array_equal(S0[0], s)
        with pytest.raises(ValueError, match="outside"):
            certs.augment(res.records[:3], columns=[(4, s, s)])
