"""Closed-form auxiliary optimization over an ellipsoid cut by halfspaces.

Everything here is about the set ``{x : |x|_{H^-1} <= 1, <a_i, x> <= b_i}``:
its support function in a direction ``s`` (``support_value_xi``) and the
exact solution of the two-cut dual problem

    min_{mu >= 0}  |s - mu1 a1 - mu2 a2|*_H  +  mu1 b1 + mu2 b2

(``dual_multipliers``).  These are the only subproblems the solver and the
certificate backward pass need.  Both public functions form the Gram scalars
``s.Hs, a_i.Hs, a_i.Ha_j`` and call one private Gram-form core, which solves
the single-cut multiplier (``_tau_gram``) and the unconstrained stationary
point behind it (``_stationary``) in closed form.  A single cut's multiplier
is the first component of ``dual_multipliers`` against a vacuous second cut
(zero normal, zero offset).

The dual is positively homogeneous in ``s``, in each cut and in ``(H, b)``
(H quadratically), so every tolerance is relative to the dual norms of the
vectors it compares: a sign test of ``a`` against ``s`` allows
``SLATER_TOL |a|* |s|*``, an offset or redundancy test on cut ``a`` allows
``SLATER_TOL |a|*``, two cuts are dependent when
``det(A^T H A) <= 1e-14 (a1.Ha1)(a2.Ha2)``, round-off clamps of square roots
scale with the largest Gram term, and the quadrant check with ``max|mu_i|``.
Power-of-two scalings thus keep every branch and scale the multipliers
exactly.  Ties resolve toward the sparser multiplier pair (either branch is
optimal at exact equality); two parallel cuts never reach the two-multiplier
branch, because the redundancy checks collapse them onto one cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import nonneg_sqrt

SLATER_TOL = 1e-12


class SlaterViolation(ValueError):
    """The cut leaves the ellipsoid without interior feasible points."""


class DependentConstraints(ValueError):
    """The constraint normals are (numerically) linearly dependent."""


@dataclass(frozen=True)
class HalfspaceCut:
    """Halfspace ``{x : <normal, x> <= offset}``.

    A zero normal is allowed only with a nonnegative offset (vacuous cut).
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        if self.offset < 0.0 and not np.any(self.normal):
            raise SlaterViolation(f"zero-normal cut with negative offset {self.offset:g}")


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


def _tau_gram(sHs: float, aHs: float, aHa: float, beta: float) -> float:
    """Single-cut multiplier from the Gram values of (s, a) under H."""
    if aHa <= 0.0:  # zero normal: vacuous cut, feasible only with beta >= 0
        if beta < 0.0:
            raise SlaterViolation(f"zero-normal cut with offset {beta:g}")
        return 0.0
    nrm_a = nonneg_sqrt(aHa, aHa)
    if beta < -nrm_a - SLATER_TOL * nrm_a:
        raise SlaterViolation(f"offset {beta:g} < -|a|* = {-nrm_a:g}")
    if sHs <= 0.0:
        return 0.0  # s = 0: objective is nondecreasing in tau
    nrm_s = nonneg_sqrt(sHs, sHs)
    if aHs <= beta * nrm_s + SLATER_TOL * nrm_a * nrm_s:
        return 0.0
    return _stationary(sHs, aHs, 0.0, aHa, 1.0, 0.0, beta, 0.0)[0]


def _xi_gram(sHs: float, aHs: float, aHa: float, beta: float) -> float:
    """Support value from Gram data: dual objective evaluated at tau."""
    t = _tau_gram(sHs, aHs, aHa, beta)
    rad = sHs - 2.0 * t * aHs + t * t * aHa
    return nonneg_sqrt(rad, max(sHs, t * t * aHa), "in xi") + t * beta


def _two_cut_gram(sHs, a1Hs, a2Hs, a1Ha1, a2Ha2, a1Ha2, b1, b2) -> tuple[float, float]:
    """Optimal multiplier pair of the two-cut dual from its six Gram scalars
    and the two offsets."""
    tau1 = _tau_gram(sHs, a1Hs, a1Ha1, b1)
    tau2 = _tau_gram(sHs, a2Hs, a2Ha2, b2)
    nrm_a1 = nonneg_sqrt(a1Ha1, a1Ha1)
    nrm_a2 = nonneg_sqrt(a2Ha2, a2Ha2)

    # ball-within-cut redundancy: the other constraint can be dropped outright
    xi1 = _xi_gram(a2Ha2, a1Ha2, a1Ha1, b1)  # max <a2, x> subject to cut1
    if xi1 <= b2 + SLATER_TOL * nrm_a2:
        return tau1, 0.0
    xi2 = _xi_gram(a1Ha1, a1Ha2, a2Ha2, b2)  # max <a1, x> subject to cut2
    if xi2 <= b1 + SLATER_TOL * nrm_a1:
        return 0.0, tau2

    # single-cut optimizer feasible for the other cut
    r1 = sHs - 2.0 * tau1 * a1Hs + tau1 * tau1 * a1Ha1
    n1 = nonneg_sqrt(r1, max(sHs, tau1 * tau1 * a1Ha1))  # |s - tau1 a1|*
    if a2Hs - tau1 * a1Ha2 <= b2 * n1 + SLATER_TOL * nrm_a2 * n1:
        return tau1, 0.0
    r2 = sHs - 2.0 * tau2 * a2Hs + tau2 * tau2 * a2Ha2
    n2 = nonneg_sqrt(r2, max(sHs, tau2 * tau2 * a2Ha2))  # |s - tau2 a2|*
    if a1Hs - tau2 * a1Ha2 <= b1 * n2 + SLATER_TOL * nrm_a1 * n2:
        return 0.0, tau2

    # both constraints active
    mu1, mu2 = _stationary(sHs, a1Hs, a2Hs, a1Ha1, a2Ha2, a1Ha2, b1, b2)
    if min(mu1, mu2) < -1e-9 * max(abs(mu1), abs(mu2)):
        raise RuntimeError(f"two-cut stationary point ({mu1:g}, {mu2:g}) left the "
                           "nonnegative quadrant; inconsistent geometry")
    return max(mu1, 0.0), max(mu2, 0.0)


def support_value_xi(H: np.ndarray, s: np.ndarray, cut: HalfspaceCut) -> float:
    """max of ``<s, x>`` over ``{ |x|_{H^-1} <= 1, <a, x> <= b }``.

    Computed as the dual value ``|s - tau a|*_H + tau b`` at the optimal
    single-cut multiplier; strong duality holds under the Slater condition.
    """
    Hs = H @ s
    a = cut.normal
    return _xi_gram(float(s @ Hs), float(a @ Hs), float(a @ (H @ a)), cut.offset)


def dual_multipliers(
    H: Optional[np.ndarray], s: np.ndarray, cut1: HalfspaceCut, cut2: HalfspaceCut,
    *, products: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> tuple[float, float]:
    """Optimal nonnegative multiplier pair for two linear cuts of an ellipsoid.

    Solves ``min_{mu >= 0} |s - mu1 a1 - mu2 a2|*_H + mu1 b1 + mu2 b2`` by
    case analysis: first each cut alone, then redundancy of one cut inside
    the other, then the sign test telling whether the single-cut optimizer
    already satisfies the remaining constraint, and finally the genuine
    two-constraint stationary point.  ``products`` is ``(H s, H a1, H a2)``
    when the caller already has them; ``H`` is then not read.
    """
    a1, a2 = cut1.normal, cut2.normal
    Hs, Ha1, Ha2 = products if products is not None else (H @ s, H @ a1, H @ a2)
    return _two_cut_gram(float(s @ Hs), float(a1 @ Hs), float(a2 @ Hs),
                         float(a1 @ Ha1), float(a2 @ Ha2), float(a1 @ Ha2),
                         cut1.offset, cut2.offset)
