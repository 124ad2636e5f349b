import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subell.linalg import dual_norm
from subell.support import (
    DependentConstraints,
    HalfspaceCut,
    SlaterViolation,
    _stationary,
    dual_multipliers,
    support_value_xi,
)

from helpers import (
    grid_min_two_cuts,
    random_spd,
    support_exact,
    support_samples,
    two_cut_objective,
    unit,
)


def _objective_u(H, s, A, b, u):
    res = s - np.column_stack(A) @ u
    return dual_norm(H, res) + float(u @ b)


def _grams(H, s, a1, a2):
    """The six Gram scalars ``s.Hs, a1.Hs, a2.Hs, a1.Ha1, a2.Ha2, a1.Ha2``."""
    Hs, Ha1, Ha2 = H @ s, H @ a1, H @ a2
    return (float(s @ Hs), float(a1 @ Hs), float(a2 @ Hs),
            float(a1 @ Ha1), float(a2 @ Ha2), float(a1 @ Ha2))


def _vacuous(n):
    """A cut every point satisfies; against it, the first multiplier of
    ``dual_multipliers`` is the single-cut multiplier."""
    return HalfspaceCut(np.zeros(n), 0.0)


class TestMinimizerU:
    """The unconstrained minimizer of ``u -> |s - A u|*_H + <u, b>`` from
    the Gram scalars (``_stationary``).  One column passes a unit second
    normal H-orthogonal to s and a1, with zero offset."""

    def test_residual_free_case(self):
        rng = np.random.default_rng(0)
        H = random_spd(rng, 4)
        A = [rng.standard_normal(4), rng.standard_normal(4)]
        w = np.array([0.7, -1.3])
        s = np.column_stack(A) @ w
        b = np.array([0.1, -0.2])  # any offsets with b.(A^T H A)^-1 b < 1 scaled down
        b = 0.1 * b
        u = _stationary(*_grams(H, s, *A), *b)
        assert np.allclose(u, w, atol=1e-10)

    def test_two_dim_worked_example(self):
        # H = I, single column (1,0), s = (2,1): u = 2, optimum value |(0,1)| = 1
        H = np.eye(2)
        A = [np.array([1.0, 0.0])]
        sHs, a1Hs, _, a1Ha1, _, _ = _grams(H, np.array([2.0, 1.0]), A[0], A[0])
        u = np.array(_stationary(sHs, a1Hs, 0.0, a1Ha1, 1.0, 0.0, 0.0, 0.0)[:1])
        assert u[0] == pytest.approx(2.0, abs=1e-14)
        assert _objective_u(H, np.array([2.0, 1.0]), A, np.array([0.0]), u) == \
            pytest.approx(1.0, abs=1e-14)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(1)
        H = random_spd(rng, 4)
        A = [unit(rng, 4), unit(rng, 4)]
        s = rng.standard_normal(4)
        b = 0.3 * np.array([1.0, -0.5])
        u = np.array(_stationary(*_grams(H, s, *A), *b))
        val = _objective_u(H, s, A, b, u)
        eps = rng.standard_normal((100_000, 2)) * rng.uniform(1e-6, 1.0, (100_000, 1))
        phi = two_cut_objective(H, s, A[0], b[0], A[1], b[1])
        assert val <= float(phi(u + eps).min()) + 1e-12

    def test_first_order_condition(self):
        # b = A^T H (s - Au) / |s - Au|* whenever the residual is nonzero
        rng = np.random.default_rng(2)
        for _ in range(30):
            H = random_spd(rng, 5)
            A = [rng.standard_normal(5), rng.standard_normal(5)]
            s = rng.standard_normal(5)
            b = 0.2 * rng.standard_normal(2)
            u = np.array(_stationary(*_grams(H, s, *A), *b))
            res = s - np.column_stack(A) @ u
            nrm = dual_norm(H, res)
            if nrm > 1e-8:
                lhs = np.column_stack(A).T @ (H @ res) / nrm
                assert np.allclose(lhs, b, atol=1e-8)

    def test_rejects_slater_violation(self):
        H = np.eye(2)
        A = [np.array([1.0, 0.0])]
        sHs, a1Hs, _, a1Ha1, _, _ = _grams(H, np.ones(2), A[0], A[0])
        with pytest.raises(SlaterViolation):
            _stationary(sHs, a1Hs, 0.0, a1Ha1, 1.0, 0.0, 2.0, 0.0)

    def test_rejects_dependent_columns(self):
        a = np.array([1.0, 2.0])
        with pytest.raises(DependentConstraints):
            _stationary(*_grams(np.eye(2), np.ones(2), a, 2 * a), 0.0, 0.0)


class TestTau:
    """The single-cut multiplier, read off ``dual_multipliers`` against a
    vacuous second cut."""

    def test_zero_when_ball_max_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = random_spd(rng, 3)
            s, a = rng.standard_normal(3), rng.standard_normal(3)
            beta = float(a @ (H @ s)) / dual_norm(H, s) + rng.uniform(0.01, 1.0)
            assert dual_multipliers(H, s, HalfspaceCut(a, beta), _vacuous(3))[0] == 0.0

    def test_active_cut_against_dense_scan(self):
        H = np.eye(2)
        s = np.array([1.0, 0.0])
        cut = HalfspaceCut(np.array([1.0, 0.0]), 0.0)
        got = dual_multipliers(H, s, cut, _vacuous(2))[0]
        # brute-force scan over tau in [0, 10] at 1e-6 resolution, chunked
        best_t, best_v = 0.0, np.inf
        for lo in range(10):
            ts = lo + np.arange(0, 1_000_000) * 1e-6
            vals = np.abs(1.0 - ts) + ts * 0.0
            vals = np.sqrt((1.0 - ts) ** 2) + 0.0 * ts
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_v, best_t = float(vals[i]), float(ts[i])
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(best_t, abs=1e-6)

    def test_zero_subgradient_direction(self):
        rng = np.random.default_rng(4)
        H = random_spd(rng, 3)
        cut = HalfspaceCut(rng.standard_normal(3), 0.3)
        assert dual_multipliers(H, np.zeros(3), cut, _vacuous(3))[0] == 0.0

    def test_scaled_cut_keeps_dual_contribution(self):
        # the cut set is invariant under (a, beta) -> (kappa a, kappa beta);
        # the multiplier scales inversely so tau*a and tau*beta are unchanged
        rng = np.random.default_rng(5)
        for _ in range(20):
            H = random_spd(rng, 3)
            s, a = rng.standard_normal(3), rng.standard_normal(3)
            beta = float(rng.uniform(-0.3, 0.5)) * np.linalg.norm(a)
            kappa = float(rng.uniform(0.1, 10))
            t1 = dual_multipliers(H, s, HalfspaceCut(a, beta), _vacuous(3))[0]
            t2 = dual_multipliers(H, s, HalfspaceCut(kappa * a, kappa * beta),
                                  _vacuous(3))[0]
            assert kappa * t2 == pytest.approx(t1, rel=1e-9, abs=1e-12)
            v1 = support_value_xi(H, s, HalfspaceCut(a, beta))
            v2 = support_value_xi(H, s, HalfspaceCut(kappa * a, kappa * beta))
            assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-12)

    def test_rejects_empty_cut(self):
        H = np.eye(2)
        a = np.array([1.0, 0.0])
        with pytest.raises(SlaterViolation):
            dual_multipliers(H, np.ones(2), HalfspaceCut(a, -2.0), _vacuous(2))

    def test_rejects_zero_normal_cut_where_it_is_normed(self):
        # the empty halfspace 0.x <= -1 is made freely and rejected in use
        cut = HalfspaceCut(np.zeros(2), -1.0)
        with pytest.raises(SlaterViolation, match="zero-normal cut"):
            dual_multipliers(np.eye(2), np.ones(2), cut, _vacuous(2))
        with pytest.raises(SlaterViolation, match="zero-normal cut"):
            support_value_xi(np.eye(2), np.ones(2), cut)


class TestSupportValue:
    def test_vacuous_cut_gives_dual_norm(self):
        rng = np.random.default_rng(6)
        H = random_spd(rng, 4)
        s = rng.standard_normal(4)
        cut = HalfspaceCut(np.zeros(4), 0.0)
        assert support_value_xi(H, s, cut) == pytest.approx(dual_norm(H, s), rel=1e-14)

    def test_zero_objective(self):
        rng = np.random.default_rng(7)
        H = random_spd(rng, 3)
        assert support_value_xi(H, np.zeros(3), HalfspaceCut(unit(rng, 3), 0.2)) == 0.0

    def test_matches_primal_geometry_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            H = random_spd(rng, n)
            s = rng.standard_normal(n)
            a = rng.standard_normal(n)
            # Slater by construction: offset above the value at an interior point
            xbar = 0.6 * unit(rng, n)
            L = np.linalg.cholesky(H)
            beta = float(a @ (L @ xbar)) + float(rng.uniform(0.01, 1.0))
            got = support_value_xi(H, s, HalfspaceCut(a, beta))
            want = support_exact(H, s, a, beta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_rejection_sampling_lower_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = 3
            H = random_spd(rng, n)
            s = unit(rng, n)
            a = rng.standard_normal(n)
            xbar = 0.5 * unit(rng, n)
            L = np.linalg.cholesky(H)
            beta = float(a @ (L @ xbar)) + float(rng.uniform(0.05, 0.8))
            got = support_value_xi(H, s, HalfspaceCut(a, beta))
            sampled = support_samples(H, s, a, beta, rng,
                                      n_interior=20000, n_boundary=60000)
            assert sampled <= got + 1e-9          # sampling never exceeds the max
            assert got - sampled <= 1e-3 * max(1.0, abs(got))  # and comes close


class TestDualMultipliers:
    def test_both_cuts_vacuous(self):
        rng = np.random.default_rng(10)
        H = random_spd(rng, 3)
        s = rng.standard_normal(3)
        big = 10.0 * dual_norm(H, s) + 10.0
        c1 = HalfspaceCut(unit(rng, 3), big)
        c2 = HalfspaceCut(unit(rng, 3), big)
        assert dual_multipliers(H, s, c1, c2) == (0.0, 0.0)

    def test_two_active_cuts_against_grid(self):
        H = np.eye(2)
        s = np.array([1.0, 1.0])
        c1 = HalfspaceCut(np.array([1.0, 0.0]), 0.0)
        c2 = HalfspaceCut(np.array([0.0, 1.0]), 0.0)
        mu = dual_multipliers(H, s, c1, c2)
        phi = two_cut_objective(H, s, c1.normal, 0.0, c2.normal, 0.0)
        got = float(phi(np.array(mu)))
        want = grid_min_two_cuts(H, s, c1.normal, 0.0, c2.normal, 0.0, hi=5.0)
        assert got <= want + 1e-3
        assert abs(got - want) <= 1e-3

    def test_single_active_cut_reduces_to_tau(self):
        H = np.eye(2)
        s = np.array([1.0, 0.0])
        c1 = HalfspaceCut(np.array([1.0, 0.0]), 0.0)
        c2 = HalfspaceCut(np.array([0.0, 1.0]), 10.0)  # slack by 10 > ball radius
        mu = dual_multipliers(H, s, c1, c2)
        assert mu == (dual_multipliers(H, s, c1, _vacuous(2))[0], 0.0)
        assert mu[0] == pytest.approx(1.0, abs=1e-12)

    def test_never_beaten_by_candidates(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            H = random_spd(rng, n)
            s = rng.standard_normal(n)
            a1, a2 = unit(rng, n), unit(rng, n)
            xbar = 0.5 * unit(rng, n)
            L = np.linalg.cholesky(H)
            b1 = float(a1 @ (L @ xbar)) + float(rng.uniform(0.02, 0.6))
            b2 = float(a2 @ (L @ xbar)) + float(rng.uniform(0.02, 0.6))
            c1, c2 = HalfspaceCut(a1, b1), HalfspaceCut(a2, b2)
            mu = np.array(dual_multipliers(H, s, c1, c2))
            phi = two_cut_objective(H, s, a1, b1, a2, b2)
            val = float(phi(mu))
            t1 = dual_multipliers(H, s, c1, _vacuous(n))[0]
            t2 = dual_multipliers(H, s, c2, _vacuous(n))[0]
            for cand in ([t1, 0.0], [0.0, t2], [0.0, 0.0]):
                assert val <= float(phi(np.array(cand))) + 1e-10
            rand = rng.uniform(0, 3, size=(1000, 2))
            assert val <= float(phi(rand).min()) + 1e-10

    def test_parallel_duplicate_cuts_collapse(self):
        # identical halfspace written twice: single-cut answer, no singular system
        H = np.eye(3)
        s = np.array([1.0, 0.3, -0.2])
        a = np.array([1.0, 0.0, 0.0])
        mu = dual_multipliers(H, s, HalfspaceCut(a, 0.1), HalfspaceCut(2 * a, 0.2))
        t = dual_multipliers(H, s, HalfspaceCut(a, 0.1), _vacuous(3))[0]
        phi = two_cut_objective(H, s, a, 0.1, 2 * a, 0.2)
        assert float(phi(np.array(mu))) == pytest.approx(float(phi(np.array([t, 0.0]))),
                                                         abs=1e-12)
        assert min(mu) == 0.0

    def test_opposite_parallel_cuts_slab(self):
        # a thin slab: the two-column system would be singular, so the
        # routine must exit through a single-cut branch
        H = np.eye(2)
        a = np.array([1.0, 0.0])
        s = np.array([0.2, 1.0])
        mu = dual_multipliers(H, s, HalfspaceCut(a, 0.3), HalfspaceCut(-a, 0.3))
        phi = two_cut_objective(H, s, a, 0.3, -a, 0.3)
        rand = np.random.default_rng(0).uniform(0, 3, size=(2000, 2))
        assert float(phi(np.array(mu))) <= float(phi(rand).min()) + 1e-10


def _two_cut_instance(seed):
    """Random SPD H, direction s and two cuts through a common interior point,
    with slacks spread so that every branch of dual_multipliers occurs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    H = random_spd(rng, n)
    s = rng.standard_normal(n)
    x = np.linalg.cholesky(H) @ (rng.uniform(0.0, 0.9) * unit(rng, n))
    cuts = []
    for _ in range(2):
        a = rng.standard_normal(n)
        cuts.append(HalfspaceCut(a, float(a @ x) + rng.uniform(0.0, 1.0) * dual_norm(H, a)))
    return H, s, cuts[0], cuts[1]


def _scaled(cut, alpha):
    return HalfspaceCut(alpha * cut.normal, alpha * cut.offset)


class TestDualMultiplierHomogeneity:
    """The two-cut dual is positively homogeneous in s, in each cut and in
    (H, offsets).  With power-of-two factors every operation scales exactly,
    so the branch and the multipliers must match bit for bit."""

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-40, 40))
    def test_direction_scaling(self, seed, j):
        H, s, c1, c2 = _two_cut_instance(seed)
        kappa = 2.0 ** j
        mu1, mu2 = dual_multipliers(H, s, c1, c2)
        assert dual_multipliers(H, kappa * s, c1, c2) == (kappa * mu1, kappa * mu2)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-40, 40),
           which=st.sampled_from([0, 1]))
    def test_cut_scaling(self, seed, j, which):
        H, s, c1, c2 = _two_cut_instance(seed)
        alpha = 2.0 ** j
        mu = list(dual_multipliers(H, s, c1, c2))
        mu[which] /= alpha
        cuts = [c1, c2]
        cuts[which] = _scaled(cuts[which], alpha)
        assert dual_multipliers(H, s, *cuts) == tuple(mu)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-40, 40))
    def test_metric_scaling(self, seed, j):
        H, s, c1, c2 = _two_cut_instance(seed)
        lam = 4.0 ** j
        mu = dual_multipliers(H, s, c1, c2)
        got = dual_multipliers(lam * H, s, HalfspaceCut(c1.normal, 2.0 ** j * c1.offset),
                               HalfspaceCut(c2.normal, 2.0 ** j * c2.offset))
        assert got == mu
