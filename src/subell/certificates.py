"""Accuracy semicertificates from recorded solver runs.

A semicertificate is a nonnegative weight vector over the recorded steps
with positive weighted subgradient mass; its *gap* over the initial ball
bounds, after normalizing by the productive weight instead, the *residual*
that controls problem-specific inaccuracy measures (functional error,
primal-dual gap, dual gap function).

The constructions here all reduce to one backward pass (``augment``): walk
the recorded localizers from the last step to the first, each time dualizing
the subgradient cut of that step via the two-constraint multiplier routine,
and fold the multiplier into the running direction.  The pass never forms
an operator: after one O(n^2) matrix-vector product with the last operator
it carries ``H_i s`` backward through the recorded rank-one updates, so each
backward step costs O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import spd_inverse, top_eigenpair
from .solver import HistoryRecord, SolverState, avg_radius
from .support import HalfspaceCut, dual_multipliers


@dataclass(frozen=True)
class Semicertificate:
    """Nonnegative step weights with their two normalization masses.

    ``gamma_weighted`` is sum(lambda_i |g_i|); a genuine semicertificate has
    it positive.  ``productive_weight`` is the weight landing on productive
    steps; the weights form an accuracy certificate iff it is positive.
    The only legitimate gamma_weighted == 0 case is the exact-solution
    termination (zero subgradient with unit trailing weight).
    """

    weights: np.ndarray
    gamma_weighted: float
    productive_weight: float

    @classmethod
    def from_weights(cls, weights: np.ndarray,
                     records: Sequence[HistoryRecord]) -> "Semicertificate":
        weights = np.asarray(weights, dtype=float)
        if len(weights) != len(records):
            raise ValueError(
                f"{len(weights)} weights for {len(records)} recorded steps"
            )
        if np.any(weights < 0.0):
            raise ValueError("certificate weights must be nonnegative")
        gnorms = np.array([float(np.linalg.norm(r.g)) for r in records])
        prod = np.array([r.productive for r in records])
        return cls(
            weights=weights,
            gamma_weighted=float(weights @ gnorms),
            productive_weight=float(weights[prod].sum()),
        )

    @property
    def is_certificate(self) -> bool:
        return self.productive_weight > 0.0


def _weighted_model(weights: np.ndarray,
                    records: Sequence[HistoryRecord]) -> tuple[np.ndarray, float]:
    """Aggregate direction w = sum(lambda_i g_i) and value sum(lambda_i <g_i, x_i>)."""
    w = np.zeros_like(records[0].g)
    val = 0.0
    for lam_i, rec in zip(weights, records):
        if lam_i != 0.0:
            w += lam_i * rec.g
            val += lam_i * float(rec.g @ rec.x)
    return w, val


def _ball_max(weights: np.ndarray, records: Sequence[HistoryRecord],
              x0: np.ndarray, R: float) -> float:
    """max over x in B(x0, R) of sum(lambda_i <g_i, x_i - x>), in closed form."""
    w, val = _weighted_model(weights, records)
    return val - float(w @ x0) + R * float(np.linalg.norm(w))


def gap(cert: Semicertificate, records: Sequence[HistoryRecord],
        x0: np.ndarray, R: float) -> float:
    """Gap of the weights over the ball B(x0, R):
    max_x sum(lambda_i <g_i, x_i - x>) / gamma_weighted, in closed form."""
    if cert.gamma_weighted <= 0.0:
        raise ValueError("gap undefined: weighted subgradient mass is zero")
    return _ball_max(cert.weights, records, x0, R) / cert.gamma_weighted


def residual(cert: Semicertificate, records: Sequence[HistoryRecord],
             x0: np.ndarray, R: float) -> float:
    """Residual of a certificate over B(x0, R): the same maximum normalized
    by the productive weight."""
    if cert.productive_weight <= 0.0:
        raise ValueError("residual undefined: no weight on productive steps")
    return _ball_max(cert.weights, records, x0, R) / cert.productive_weight


def residual_bound_from_gap(delta: float, r: float, V: float) -> float:
    """Residual guarantee delta V / (r - delta) for any semicertificate whose
    gap delta is below the inner-ball radius r of the feasible set."""
    if not delta < r:
        raise ValueError(f"bound vacuous: gap {delta:g} >= inner radius {r:g}")
    return delta * V / (r - delta)


def _step_back(v: np.ndarray, rec: HistoryRecord, s: np.ndarray) -> None:
    """Turn ``v = H_{i+1} s`` into ``H_i s`` in place, where record i made the
    update: ``H_i = H_{i+1} + beta (Hg)(Hg)^T`` with
    ``beta = b / (1 + b g.Hg)``."""
    if rec.b != 0.0:
        beta = rec.b / (1.0 + rec.b * float(rec.g @ rec.Hg))
        v += (beta * float(rec.Hg @ s)) * rec.Hg


def augment(records: Sequence[HistoryRecord], s_final: np.ndarray,
            final_operator: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Backward dual-multiplier pass.

    Given a direction ``s_k``, walks the recorded localizers backward,
    at each step computing the multiplier of the subgradient cut
    ``<g_i, x - x_i> <= 0`` relative to the localizer of step i (its
    ellipsoid scaled to the unit ball, with the accumulated-model halfspace
    as the first cut and the subgradient cut as the second, keeping the
    second multiplier) and replacing ``s_i = s_{i+1} - mu_i g_i``.

    The multiplier routine needs only ``H_i s``, ``H_i c_i = z_i - x_i`` and
    ``H_i g_i`` (recorded).  ``v = H_i s`` starts from ``final_operator``
    (the operator after the last record) stepped back one record, or else
    from the last record's replayed operator ``records[-1].H``, and then
    follows ``s`` and the inverted rank-one updates in O(n) per step.

    Returns ``(mu, s_0)``.  The weights mu satisfy: the support of the
    augmented model over the initial ball never exceeds the support of
    ``s_k`` over the final localizer.
    """
    mus = np.zeros(len(records))
    s = np.asarray(s_final, dtype=float).copy()
    if not records:
        return mus, s
    if final_operator is not None:
        v = final_operator @ s
        _step_back(v, records[-1], s)
    else:
        v = records[-1].H @ s
    for i in reversed(range(len(records))):
        rec = records[i]
        cut_model = HalfspaceCut(rec.c, rec.sigma - float(rec.c @ rec.z))
        cut_step = HalfspaceCut(rec.g, float(rec.g @ (rec.x - rec.z)))
        _, mu = dual_multipliers(
            None, s, cut_model, cut_step,
            products=(rec.D * v, rec.D * (rec.z - rec.x), rec.D * rec.Hg))
        mus[i] = mu
        if mu != 0.0:
            s -= mu * rec.g
            v -= mu * rec.Hg
        if i > 0:
            _step_back(v, records[i - 1], s)
    return mus, s


def certify_from_preliminary(records: Sequence[HistoryRecord],
                             terminal: bool = False,
                             final_operator: Optional[np.ndarray] = None,
                             ) -> Semicertificate:
    """Turn the recorded step weights into a semicertificate on the initial ball.

    Nonterminal runs: augment against the accumulated model direction
    ``-sum(a_i g_i)`` and add the multipliers to the step weights; the gap of
    the result never exceeds the sliding gap.  Terminal runs (gap test hit,
    or zero subgradient): augment the preceding steps against the last
    subgradient and give the terminal step unit weight; the gap of the
    result is at most the termination threshold.
    """
    if not records:
        raise ValueError("cannot certify an empty history")
    if terminal:
        head = records[:-1]
        s_final = -records[-1].g
        if head:
            mus, _ = augment(head, s_final, final_operator=final_operator)
        else:
            mus = np.zeros(0)
        weights = np.concatenate([mus, [1.0]])
        return Semicertificate.from_weights(weights, records)
    prelim = np.array([rec.a for rec in records])
    if not np.any(prelim > 0.0):
        raise ValueError(
            "no preliminary weights accumulated; use the min-width certificate"
        )
    w, _ = _weighted_model(prelim, records)
    mus, _ = augment(records, -w, final_operator=final_operator)
    return Semicertificate.from_weights(prelim + mus, records)


@dataclass(frozen=True)
class MinWidthReport:
    """Certificate built from the min-width direction of the final ellipsoid,
    for runs without preliminary weights (the standard ellipsoid method)."""

    certificate: Semicertificate
    direction: np.ndarray
    rho: float                     # twice the average radius of the final ellipsoid
    gap_bound: Optional[float]     # 2 rho D / (r - rho); None when rho >= r


def certify_standard_ellipsoid(records: Sequence[HistoryRecord],
                               state: SolverState,
                               diameter: float,
                               inner_radius: float) -> MinWidthReport:
    """Min-width certificate for runs of the standard ellipsoid strategy.

    The direction of minimal width of the final ellipsoid is the top unit
    eigenvector of the inverse metric's inverse; two backward passes from
    ``state.H``, the operator after the records (one for the direction, one
    for its negation), produce weights whose gap over the initial ball is at
    most 2 rho D / (r - rho), rho = 2 avrad, provided rho < r.  When
    rho >= r the weights are still returned but the bound is reported as
    vacuous (gap_bound None).
    """
    if not records:
        raise ValueError("cannot certify an empty history")
    G = spd_inverse(state.H)
    _, direction = top_eigenpair(G)
    mu_fwd, _ = augment(records, direction, final_operator=state.H)
    mu_bwd, _ = augment(records, -direction, final_operator=state.H)
    cert = Semicertificate.from_weights(mu_fwd + mu_bwd, records)
    rho = 2.0 * avg_radius(state)
    bound = None
    if rho < inner_radius:
        bound = 2.0 * rho * diameter / (inner_radius - rho)
    return MinWidthReport(certificate=cert, direction=direction, rho=rho,
                          gap_bound=bound)
