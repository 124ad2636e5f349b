"""Dense symmetric positive-definite operator arithmetic.

Coordinates are fixed so that the reference inner product is the plain dot
product; every operator in this package is then just a dense symmetric
``numpy`` array.  This module provides the few primitives the solver and
the certificates need: the one round-off rule (``nonneg``, with
``nonneg_sqrt`` its square root), the one bound on summation error
(``CANCELLED``), the dual norm given the inverse operator
(``dual_norm``), the SPD inverse and symmetrization, and the top eigenpair
of a symmetric matrix, which the min-width certificate takes of ``-H``.
The rank-one update of the inverse metric lives with the step that makes
it (``solver``).
"""

from __future__ import annotations

import math

import numpy as np

# a sum whose magnitude is below this share of the magnitudes of its terms
# is rounding noise (the summation error bound, with room)
CANCELLED = 16.0 * float(np.finfo(float).eps)


class PositiveDefinitenessLost(ArithmeticError):
    """A quadratic form that must be nonnegative came out negative."""


def symmetrize(H: np.ndarray) -> np.ndarray:
    """``(H + H.T) / 2`` as ``0.5 H + 0.5 H^T``: it cannot overflow, and
    halving is exact.  ``spd_inverse`` and the problem loader use it; the
    solver's rank-one updates keep ``H`` exactly symmetric."""
    return 0.5 * H + 0.5 * H.T


def nonneg(value: float, scale: float = 1.0, context: str = "") -> float:
    """``value`` if it is a nonnegative finite number: the package's one
    round-off rule.  Values in ``[-1e-12 * max(1, scale), 0)`` clamp to zero;
    a more negative, NaN or infinite value raises ``PositiveDefinitenessLost``
    with ``context`` at the end of its message."""
    if 0.0 <= value < math.inf:
        return value
    if math.isfinite(value) and value >= -1e-12 * max(1.0, scale):
        return 0.0
    kind = "negative" if math.isfinite(value) else "non-finite"
    raise PositiveDefinitenessLost(
        f"{kind} value {value:g} (scale {scale:g}) {context}".rstrip())


def nonneg_sqrt(value: float, scale: float = 1.0, context: str = "") -> float:
    """``sqrt(nonneg(value, scale, context))``; ``nonneg`` runs off range only."""
    return math.sqrt(value if 0.0 <= value < math.inf else nonneg(value, scale, context))


def dual_norm(H: np.ndarray, s: np.ndarray) -> float:
    """Dual norm ``sqrt(s . H s)`` of a functional ``s`` given the inverse
    operator ``H`` directly.  Zero iff ``s`` is zero (for PD ``H``)."""
    rad = float(s @ (H @ s))
    scale = float(np.abs(s).max(initial=0.0)) ** 2 * float(np.abs(H).max(initial=1.0))
    return nonneg_sqrt(rad, scale, "in dual_norm")


def spd_inverse(H: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PD matrix via Cholesky (raises if not PD)."""
    L = np.linalg.cholesky(symmetrize(H))
    eye = np.eye(H.shape[0])
    Linv = np.linalg.solve(L, eye)
    return symmetrize(Linv.T @ Linv)


def top_eigenpair(G: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric matrix and a unit eigenvector.

    Taken from the full symmetric eigendecomposition (``eigh``, which reads
    one triangle of ``G``), with the sign fixed so that ``<v, 1> >= 0``, the
    orientation power iteration from the all-ones start converges to; the
    certificates stay reproducible.

    Returns ``(lam, v)`` with ``|v| = 1``; the residual ``|G v - lam v|``
    is at round-off level, about ``n eps max|lam_i|``.
    """
    evals, evecs = np.linalg.eigh(G)
    v = evecs[:, -1]
    if v.sum() < 0.0:
        v = -v
    return float(evals[-1]), v
