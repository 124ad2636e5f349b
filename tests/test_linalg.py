import numpy as np
import pytest

from subell.linalg import (
    PositiveDefinitenessLost,
    dual_norm,
    spd_inverse,
    symmetrize,
    top_eigenpair,
)
from subell.solver import _rank_one_update

from helpers import random_spd


def updated(H, g, b):
    """Inverse of ``H^-1 + b g g^T`` through the solver's update, with the
    product and denominator formed as ``step`` forms them."""
    hg = H @ g
    return _rank_one_update(H, hg, b, 1.0 + b * float(g @ hg))


def test_dual_norm_unit_vector_under_identity():
    assert dual_norm(np.eye(3), np.array([1.0, 0, 0])) == 1.0


def test_dual_norm_zero_vector():
    H = random_spd(np.random.default_rng(1), 4)
    assert dual_norm(H, np.zeros(4)) == 0.0


def test_dual_norm_diagonal_example():
    # s^T H s = 4 + 1 = 5
    assert dual_norm(np.diag([4.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(
        np.sqrt(5.0), abs=1e-15)


def test_dual_norm_homogeneous_and_cauchy_schwarz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 6)
        H = random_spd(rng, n)
        Hinv = spd_inverse(H)
        s, x = rng.standard_normal(n), rng.standard_normal(n)
        t = float(rng.uniform(0, 5))
        assert dual_norm(H, t * s) == pytest.approx(t * dual_norm(H, s), rel=1e-12)
        primal = np.sqrt(x @ (Hinv @ x))
        assert abs(s @ x) <= dual_norm(H, s) * primal * (1 + 1e-10)


def test_dual_norm_rejects_indefinite_form():
    H = np.diag([1.0, -1.0])
    with pytest.raises(PositiveDefinitenessLost):
        dual_norm(H, np.array([0.0, 1.0]))


def test_rank_one_update_noop_for_zero_weight():
    H = random_spd(np.random.default_rng(2), 3)
    assert np.array_equal(updated(H, np.ones(3), 0.0), H)


def test_rank_one_update_scalar_case():
    H = np.array([[1.0]])
    out = updated(H, np.array([1.0]), 1.0)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_rank_one_update_is_exact_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(1, 7)
        H = random_spd(rng, n)
        g = rng.standard_normal(n)
        b = float(rng.uniform(0, 4))
        Hnew = updated(H, g, b)
        target = spd_inverse(H) + b * np.outer(g, g)
        assert np.abs(Hnew @ target - np.eye(n)).max() <= 1e-10


def test_rank_one_update_rejects_negative_weight():
    with pytest.raises(ValueError):
        updated(np.eye(2), np.ones(2), -0.5)


def test_update_chain_determinant_identity():
    # det of the accumulated forward operator equals the product of the
    # per-step factors 1 + b g.Hg
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        H = np.eye(n)
        log_expected = 0.0
        for _ in range(15):
            g = rng.standard_normal(n)
            b = float(rng.uniform(0, 2))
            log_expected += np.log1p(b * float(g @ (H @ g)))
            H = updated(H, g, b)
        sign, logdet_G = np.linalg.slogdet(spd_inverse(H))
        assert sign > 0
        assert logdet_G == pytest.approx(log_expected, rel=1e-8, abs=1e-10)


def test_symmetry_holds_exactly_after_updates():
    # the update does not symmetrize: it preserves exact symmetry
    rng = np.random.default_rng(5)
    H = symmetrize(random_spd(rng, 5))
    for _ in range(30):
        H = updated(H, rng.standard_normal(5), float(rng.uniform(0, 1)))
        assert np.array_equal(H, H.T)


def test_top_eigenpair_isotropic():
    lam, v = top_eigenpair(np.eye(2))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_top_eigenpair_diagonal():
    lam, v = top_eigenpair(np.diag([1.0, 4.0]))
    assert lam == pytest.approx(4.0, rel=1e-10)
    assert abs(v[1]) == pytest.approx(1.0, abs=1e-6)


def test_top_eigenpair_against_characteristic_roots():
    # closed-form eigenvalues for n <= 3 via the characteristic polynomial
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        G = random_spd(rng, n, 0.5, 5.0)
        coeffs = np.poly(G)
        lam_max = max(r.real for r in np.roots(coeffs))
        lam, v = top_eigenpair(G)
        assert lam == pytest.approx(lam_max, rel=1e-8)
        assert np.linalg.norm(G @ v - lam * v) <= 1e-10 * lam
        assert v.sum() >= 0.0  # the orientation of power iteration from all-ones


def test_top_eigenpair_residual_contract_with_degenerate_spectrum():
    # equal top eigenvalues stall plain power iteration; the residual
    # contract must still hold
    G = np.diag([3.0, 3.0, 1.0])
    lam, v = top_eigenpair(G)
    assert lam == pytest.approx(3.0, rel=1e-12)
    assert np.linalg.norm(G @ v - lam * v) <= 1e-10 * lam


def test_spd_inverse_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(np.diag([1.0, -2.0]))


def test_symmetrize():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = symmetrize(A)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == 1.0
