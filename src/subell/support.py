"""Closed-form auxiliary optimization over an ellipsoid cut by halfspaces.

Everything here is about the set ``{x : |x|_{H^-1} <= 1, <a_i, x> <= b_i}``:
its support function in a direction ``s`` (``support_value_xi``) and the
exact solution of the two-cut dual problem

    min_{mu >= 0}  |s - mu1 a1 - mu2 a2|*_H  +  mu1 b1 + mu2 b2

(``dual_multipliers``).  These are the only subproblems the solver and the
certificate backward pass need.  Both public functions form the Gram scalars
``s.Hs, a_i.Hs, a_i.Ha_j`` and call one private Gram-form core: each cut
is checked and normed once (``_cut_norm``), and its readers, the
single-cut multiplier (``_single_cut``), the support value (``_xi_gram``)
and the stationary point (``_stationary``), are closed forms.  A single cut's multiplier
is the first component of ``dual_multipliers`` against a vacuous second cut
(zero normal, zero offset).

The two-cut core comes in two halves, so that a caller with many directions
against the same pair of cuts checks the cuts once: ``_cut_pair`` reads only
the cuts (the offset checks, the dual norms and which cut is redundant
given the other), and ``_direction_pair`` reads the direction and holds
every branch on it.  ``dual_multipliers`` calls both for one direction; the
certificate sweep calls the first once per record and the second once per
direction.  The direction half computes only the single-cut multipliers its
branch returns.

The dual is positively homogeneous in ``s``, in each cut and in ``(H, b)``
(H quadratically), so every tolerance is relative to the dual norms of the
vectors it compares: a sign test of ``a`` against ``s`` allows
``SLATER_TOL |a|* |s|*`` (in ``_direction_pair`` plus ``linalg.CANCELLED``
times the summed magnitudes of the two products it compares), an offset or redundancy test on cut ``a`` allows
``SLATER_TOL |a|*``, two cuts are dependent when
``det(A^T H A) <= 1e-14 (a1.Ha1)(a2.Ha2)``, round-off clamps of square roots
(``linalg.nonneg_sqrt``) scale with the largest Gram term, and the quadrant
check with ``max|mu_i|``.
Power-of-two scalings thus keep every branch and scale the multipliers
exactly.  Ties resolve toward the sparser multiplier pair (either branch is
optimal at exact equality); two parallel cuts never reach the two-multiplier
branch, because the redundancy checks collapse them onto one cut.
Every numerical failure raised here is an ``ArithmeticError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CANCELLED, nonneg_sqrt

SLATER_TOL = 1e-12


class SlaterViolation(ArithmeticError):
    """Numerical failure: a cut leaves the ellipsoid without interior points."""


class DependentConstraints(ArithmeticError):
    """Numerical failure: the constraint normals are numerically dependent."""


@dataclass(frozen=True)
class HalfspaceCut:
    """Halfspace ``{x : <normal, x> <= offset}``.

    A zero normal with a nonnegative offset is the vacuous cut.  Nothing is
    checked on construction: every reader norms a cut through ``_cut_norm``,
    which raises ``SlaterViolation`` for a zero normal with a negative
    offset, as for any cut that leaves no interior point.
    """

    normal: np.ndarray
    offset: float


def _stationary(sHs, a1Hs, a2Hs, a1Ha1, a2Ha2, a1Ha2, b1, b2) -> tuple[float, float]:
    """Minimizer over R^2 of ``|s - u1 a1 - u2 a2|*_H + u1 b1 + u2 b2`` from
    the Gram scalars.  With ``k = a1.Ha2 / a1.Ha1``, the normals a1 and
    ``a2 - k a1`` are H-orthogonal, and for orthogonal normals

        v_i = (a_i.Hs - r b_i) / a_i.Ha_i,
        r = sqrt( (s.Hs - sum (a_i.Hs)^2 / a_i.Ha_i) / (1 - sum b_i^2 / a_i.Ha_i) ),

    ``r`` being the residual norm at the optimum.  A unit second normal
    H-orthogonal to s and a1, with zero offset, leaves the single-cut case.
    """
    if a1Ha1 <= 0.0:
        raise DependentConstraints("zero constraint normal")
    k = a1Ha2 / a1Ha1
    schur = a2Ha2 - k * a1Ha2  # det(A^T H A) / a1.Ha1
    if schur <= 1e-14 * a2Ha2:
        raise DependentConstraints("A^T H A is numerically singular")
    p2, c2 = a2Hs - k * a1Hs, b2 - k * b1
    num = sHs - a1Hs * a1Hs / a1Ha1 - p2 * p2 / schur
    den = 1.0 - b1 * b1 / a1Ha1 - c2 * c2 / schur
    if den <= SLATER_TOL:
        raise SlaterViolation(f"b.(A^T H A)^-1 b = {1.0 - den:g}: no interior point")
    r = nonneg_sqrt(num, sHs, "in the stationary point") / math.sqrt(den)
    u2 = (p2 - r * c2) / schur
    return (a1Hs - r * b1) / a1Ha1 - k * u2, u2


def _cut_norm(aHa: float, beta: float) -> float:
    """``|a|*`` of the cut ``<a, x> <= beta`` on the unit ball of the metric,
    after the offset check: a cut whose offset lies below ``-|a|*`` leaves
    no interior point and raises ``SlaterViolation``."""
    if aHa <= 0.0:  # zero normal: vacuous cut, feasible only with beta >= 0
        if beta < 0.0:
            raise SlaterViolation(f"zero-normal cut with offset {beta:g}")
        return 0.0
    nrm_a = math.sqrt(aHa)
    if beta < -nrm_a - SLATER_TOL * nrm_a:
        raise SlaterViolation(f"offset {beta:g} < -|a|* = {-nrm_a:g}")
    return nrm_a


def _single_cut(sHs: float, aHs: float, aHa: float, nrm_a: float, beta: float) -> float:
    """Multiplier of one cut that passed ``_cut_norm`` (``nrm_a = |a|*``)
    from the Gram values of (s, a) under H."""
    if aHa <= 0.0 or sHs <= 0.0:
        return 0.0  # vacuous cut, or s = 0: objective is nondecreasing in tau
    nrm_s = math.sqrt(sHs)
    if aHs <= beta * nrm_s + SLATER_TOL * nrm_a * nrm_s:
        return 0.0
    return _stationary(sHs, aHs, 0.0, aHa, 1.0, 0.0, beta, 0.0)[0]


def _xi_gram(sHs: float, aHs: float, aHa: float, nrm_a: float, beta: float) -> float:
    """Support value, the dual objective at the single-cut multiplier, from
    the Gram values of (s, a) under H and ``nrm_a`` of ``_cut_norm``."""
    t = _single_cut(sHs, aHs, aHa, nrm_a, beta)
    rad = sHs - 2.0 * t * aHs + t * t * aHa
    return nonneg_sqrt(rad, max(sHs, t * t * aHa), "in xi") + t * beta


def _cut_pair(a1Ha1, a2Ha2, a1Ha2, b1, b2) -> tuple:
    """The half of the two-cut kernel that reads only the cuts: both offset
    checks (``SlaterViolation``), ``|a1|*`` and ``|a2|*``, and the
    ball-within-cut redundancy tests.  Returns the tuple ``_direction_pair``
    reads: the five inputs, the two norms, and which cut is left, 1 when cut
    2 is redundant given cut 1, 2 when cut 1 is redundant given cut 2, and 0
    when neither is."""
    nrm_a1 = _cut_norm(a1Ha1, b1)
    nrm_a2 = _cut_norm(a2Ha2, b2)
    left = 0
    if _xi_gram(a2Ha2, a1Ha2, a1Ha1, nrm_a1, b1) <= b2 + SLATER_TOL * nrm_a2:
        left = 1  # max <a2, x> subject to cut 1 meets cut 2
    elif _xi_gram(a1Ha1, a1Ha2, a2Ha2, nrm_a2, b2) <= b1 + SLATER_TOL * nrm_a1:
        left = 2  # max <a1, x> subject to cut 2 meets cut 1
    return a1Ha1, a2Ha2, a1Ha2, b1, b2, nrm_a1, nrm_a2, left


def _direction_pair(sHs, a1Hs, a2Hs, pair) -> tuple[float, float]:
    """The half of the two-cut kernel that reads the direction: the optimal
    multiplier pair from the three Gram scalars of ``s`` and the cut data
    ``pair`` of ``_cut_pair``.  The only statement of the branches."""
    a1Ha1, a2Ha2, a1Ha2, b1, b2, nrm_a1, nrm_a2, left = pair
    if left == 1:
        return _single_cut(sHs, a1Hs, a1Ha1, nrm_a1, b1), 0.0
    if left == 2:
        return 0.0, _single_cut(sHs, a2Hs, a2Ha2, nrm_a2, b2)

    # single-cut optimizer feasible for the other cut
    tau1 = _single_cut(sHs, a1Hs, a1Ha1, nrm_a1, b1)
    r1 = sHs - 2.0 * tau1 * a1Hs + tau1 * tau1 * a1Ha1
    n1 = nonneg_sqrt(r1, max(sHs, tau1 * tau1 * a1Ha1))  # |s - tau1 a1|*
    if a2Hs - tau1 * a1Ha2 <= (b2 * n1 + SLATER_TOL * nrm_a2 * n1
                               + CANCELLED * (abs(a2Hs) + abs(tau1 * a1Ha2))):
        return tau1, 0.0
    tau2 = _single_cut(sHs, a2Hs, a2Ha2, nrm_a2, b2)
    r2 = sHs - 2.0 * tau2 * a2Hs + tau2 * tau2 * a2Ha2
    n2 = nonneg_sqrt(r2, max(sHs, tau2 * tau2 * a2Ha2))  # |s - tau2 a2|*
    if a1Hs - tau2 * a1Ha2 <= (b1 * n2 + SLATER_TOL * nrm_a1 * n2
                               + CANCELLED * (abs(a1Hs) + abs(tau2 * a1Ha2))):
        return 0.0, tau2

    # both constraints active
    mu1, mu2 = _stationary(sHs, a1Hs, a2Hs, a1Ha1, a2Ha2, a1Ha2, b1, b2)
    if min(mu1, mu2) < -1e-9 * max(abs(mu1), abs(mu2)):
        raise ArithmeticError(f"two-cut stationary point ({mu1:g}, {mu2:g}) left the "
                              "nonnegative quadrant; inconsistent geometry")
    return max(mu1, 0.0), max(mu2, 0.0)


def support_value_xi(H: np.ndarray, s: np.ndarray, cut: HalfspaceCut) -> float:
    """max of ``<s, x>`` over ``{ |x|_{H^-1} <= 1, <a, x> <= b }``.

    Computed as the dual value ``|s - tau a|*_H + tau b`` at the optimal
    single-cut multiplier; strong duality holds under the Slater condition.
    """
    a, beta = cut.normal, cut.offset
    Hs, aHa = H.dot(s), float(a.dot(H.dot(a)))
    return _xi_gram(float(s.dot(Hs)), float(a.dot(Hs)), aHa, _cut_norm(aHa, beta), beta)


def dual_multipliers(H: np.ndarray, s: np.ndarray, cut1: HalfspaceCut,
                     cut2: HalfspaceCut) -> tuple[float, float]:
    """Optimal nonnegative multiplier pair for two linear cuts of an ellipsoid.

    Solves ``min_{mu >= 0} |s - mu1 a1 - mu2 a2|*_H + mu1 b1 + mu2 b2`` by
    case analysis: first redundancy of one cut inside the other, then each
    cut alone, then the sign test telling whether the single-cut optimizer
    already satisfies the remaining constraint, and finally the genuine
    two-constraint stationary point.
    """
    a1, a2 = cut1.normal, cut2.normal
    Hs, Ha1, Ha2 = H.dot(s), H.dot(a1), H.dot(a2)
    pair = _cut_pair(float(a1.dot(Ha1)), float(a2.dot(Ha2)), float(a1.dot(Ha2)),
                     cut1.offset, cut2.offset)
    return _direction_pair(float(s.dot(Hs)), float(a1.dot(Hs)), float(a2.dot(Hs)), pair)
