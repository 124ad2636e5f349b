"""Dense symmetric positive-definite operator arithmetic.

Coordinates are fixed so that the reference inner product is the plain dot
product; every operator in this package is then just a dense symmetric
``numpy`` array.  This module provides the few primitives the solver and
the certificates need: a square root guarded against round-off
(``nonneg_sqrt``), the dual norm given the inverse operator (``dual_norm``),
the SPD inverse and symmetrization, and the top eigenpair used by the
min-width certificate.  The rank-one update of the inverse metric lives with
the step that makes it (``solver``).
"""

from __future__ import annotations

import math

import numpy as np


class PositiveDefinitenessLost(ArithmeticError):
    """A quadratic form that must be nonnegative came out negative."""


def symmetrize(H: np.ndarray) -> np.ndarray:
    """Return ``(H + H.T) / 2``.  In the package only ``spd_inverse`` uses
    it, on its input and on the inverse it forms; the solver's rank-one
    updates keep ``H`` exactly symmetric and call it nowhere."""
    return 0.5 * (H + H.T)


def nonneg_sqrt(value: float, scale: float = 1.0, context: str = "") -> float:
    """sqrt with a round-off guard.

    Values in ``[-1e-12 * max(1, scale), 0)`` are clamped to zero; anything
    more negative signals a genuine loss of positive definiteness and raises.
    """
    if value < 0.0:
        if value >= -1e-12 * max(1.0, scale):
            return 0.0
        raise PositiveDefinitenessLost(
            f"negative radicand {value:g} (scale {scale:g}) {context}".rstrip()
        )
    return math.sqrt(value)


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
    """Largest eigenvalue of a symmetric PD matrix and a unit eigenvector.

    Taken from the full symmetric eigendecomposition (``eigh``, which reads
    one triangle of ``G``), with the sign fixed so that ``<v, 1> >= 0``, the
    orientation power iteration from the all-ones start converges to; the
    certificates stay reproducible.

    Returns ``(lam, v)`` with ``|v| = 1``; the residual ``|G v - lam v|``
    is at round-off level, about ``n eps lam``.
    """
    evals, evecs = np.linalg.eigh(G)
    v = evecs[:, -1]
    if v.sum() < 0.0:
        v = -v
    return float(evals[-1]), v
