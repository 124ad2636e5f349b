"""Accuracy semicertificates from recorded solver runs.

A semicertificate is a nonnegative weight vector over the recorded steps
with positive weighted subgradient mass; its *gap* over the initial ball
bounds, after normalizing by the productive weight instead, the *residual*
that controls problem-specific inaccuracy measures (functional error,
primal-dual gap, dual gap function).

Every construction here reduces to one backward sweep (``augment``): walk
the recorded localizers from the last step to the first, each time dualizing
the subgradient cut of that step against the running direction and folding
the multiplier into it.  The sweep carries several directions at once, one
column per certificate, and a column joins when the sweep reaches its
checkpoint; the part of the two-cut kernel that reads only the cuts runs
once per record.  The sweep never forms an operator: it carries ``H_i s``
backward through the recorded rank-one updates in O(n) per record and
column.  A column starts from ``H_{k-1} s`` at its checkpoint, which the
records give without any operator on the preliminary and terminal
pathways (``Checkpoint.at``); only the min-width direction needs ``H_k``,
whose bottom eigenvector it is, from one eigendecomposition.

``certify_run`` is the one route from checkpoints to certificates, each
with its gap, residual and min-width bound.

Every reader here takes the records through ``History.of`` (a run's
``History`` as it is, a plain list from step 0 stacked once) and reads the
stacked arrays; the sweep reads ``g.Hg`` and the localizer's cuts as the
steps recorded them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# ``spd_inverse`` is not called here any more; the benchmark's tracer looks
# it up in this module
from .linalg import CANCELLED, spd_inverse, top_eigenpair  # noqa: F401
from .oracles import Problem
from .solver import History, HistoryRecord, SolverState, avg_radius
# ``dual_multipliers`` is the scalar entry to the same kernel; the benchmark's
# tracer looks it up in this module
from .support import _cut_pair, _direction_pair, dual_multipliers  # noqa: F401

PRELIMINARY, TERMINAL, MIN_WIDTH = "preliminary", "terminal", "min-width"


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
        history = History.of(records)
        if len(weights) != len(history):
            raise ValueError(
                f"{len(weights)} weights for {len(history)} recorded steps"
            )
        if np.any(weights < 0.0):
            raise ValueError("certificate weights must be nonnegative")
        return cls(
            weights=weights,
            gamma_weighted=float(weights @ history.array("gnorm")),
            productive_weight=float(weights[history.array("productive")].sum()),
        )

    @property
    def is_certificate(self) -> bool:
        return self.productive_weight > 0.0


def _ball_max(weights: np.ndarray, records: Sequence[HistoryRecord],
              x0: np.ndarray, R: float) -> float:
    """max over x in B(x0, R) of sum(lambda_i <g_i, x_i - x>), in closed form:
    with w = sum(lambda_i g_i), it is sum(lambda_i <g_i, x_i>) - <w, x0> + R|w|."""
    history = History.of(records)
    G = history.array("g")
    w = weights @ G
    val = float(weights @ np.einsum("ij,ij->i", G, history.array("x")))
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


def _column(history: History, k: int, s: np.ndarray,
            hs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The sweep column ``(k, s, H_{k-1} s)`` from ``hs = H_k s``, stepped
    back in place through record k-1's update
    ``H_{k-1} = H_k + beta (Hg)(Hg)^T``, ``beta = b / (1 + b g.Hg)``."""
    if k > 0 and (rec := history[k - 1]).b != 0.0:
        beta = rec.b / (1.0 + rec.b * rec.gHg)
        hs += (beta * float(rec.Hg @ s)) * rec.Hg
    return k, s, hs


def _sweep(history: History, columns) -> tuple[np.ndarray, np.ndarray]:
    """One backward pass over ``history`` for every column ``(k, s, H_{k-1} s)``.

    The live columns are the rows of two blocks, ``S`` and ``V = H_i S``;
    column j joins at record ``k_j - 1``.  Per record, the cut-only half of
    the two-cut kernel runs once, the Gram scalars of the live columns come
    from three block products, and the direction half runs per column; a
    numerical failure (an ``ArithmeticError``) in either says its record.
    The multipliers fold in as ``S -= mu g^T`` and ``V -= mu (Hg)^T``, and
    the rank-one step back is ``V += beta Hg (Hg^T S)``.

    Each column carries ``M = |s_k| + sum(mu_i |g_i|)``, the magnitude of
    the terms its direction sums; once ``|s| <= CANCELLED M`` (``linalg``'s
    bound on summation error) the direction is rounding noise, and the
    column is zeroed in ``S`` and ``V``, so every later multiplier of it is
    0.  Returns ``(mus, S_0)`` with one row per
    column, in the order given; ``mus[j, i]`` is 0 for ``i >= k_j``.
    """
    K = len(history)
    if any(not 0 <= k <= K for k, _, _ in columns):
        raise ValueError(f"a column starts outside the {K} records")
    # latest checkpoint first, so the live columns are a leading block
    order = sorted(range(len(columns)), key=lambda j: columns[j][0], reverse=True)
    joins = [columns[j][0] for j in order]
    S = np.array([columns[j][1] for j in order], dtype=float)
    V = np.array([columns[j][2] for j in order], dtype=float)
    mags = np.sqrt((S * S).sum(axis=1))
    mus = np.zeros((len(columns), K))
    G, HG, C = (history.array(name) for name in ("g", "Hg", "c"))
    B, Ds, sigmas, gnorms, gHgs, cHcs, czs, cHgs, gxzs = (
        history.array(name).tolist()
        for name in ("b", "D", "sigma", "gnorm", "gHg", "cHc", "cz", "cHg", "gxz"))
    live = 0
    for i in range(K - 1, -1, -1):
        g, hg, c, b, D, gHg = G[i], HG[i], C[i], B[i], Ds[i], gHgs[i]
        if live and b != 0.0:  # H_{i+1} S -> H_i S
            Vt = V[:live]
            Vt += (b / (1.0 + b * gHg) * S[:live].dot(hg))[:, None] * hg
        while live < len(joins) and joins[live] > i:
            live += 1
        if not live:
            continue
        St, Vt = S[:live], V[:live]
        try:
            pair = _cut_pair(D * cHcs[i], D * gHg, D * cHgs[i], sigmas[i] - czs[i],
                             gxzs[i])
            mu = [_direction_pair(D * sv, D * vc, D * vg, pair)[1] for sv, vc, vg in zip(
                (St * Vt).sum(axis=1).tolist(), Vt.dot(c).tolist(), Vt.dot(g).tolist())]
        except ArithmeticError as exc:
            raise type(exc)(f"{exc} in the sweep at record {i}") from exc
        if not any(mu):
            continue
        mu = np.array(mu)
        mus[:live, i] = mu
        St -= mu[:, None] * g
        Vt -= mu[:, None] * hg
        mags[:live] += mu * gnorms[i]
        cancelled = (St * St).sum(axis=1) <= (CANCELLED * mags[:live]) ** 2
        if cancelled.any():
            St[cancelled] = 0.0
            Vt[cancelled] = 0.0
    back = np.argsort(order)
    return mus[back], S[back]


def augment(records: Sequence[HistoryRecord], s_final: Optional[np.ndarray] = None,
            final_operator: Optional[np.ndarray] = None, *,
            columns=None) -> tuple[np.ndarray, np.ndarray]:
    """Backward dual-multiplier pass.

    Given a direction ``s_k``, walks the recorded localizers backward,
    at each step computing the multiplier of the subgradient cut
    ``<g_i, x - x_i> <= 0`` relative to the localizer of step i (its
    ellipsoid scaled to the unit ball, with the accumulated-model halfspace
    as the first cut and the subgradient cut as the second, keeping the
    second multiplier) and replacing ``s_i = s_{i+1} - mu_i g_i``.

    The multiplier routine needs only ``H_i s`` and what step i recorded.
    For one direction ``s_final``, ``v = H_i s`` starts from
    ``final_operator`` (the operator after the last record) stepped back one
    record, or else from the last record's replayed operator
    ``history[-1].H``; returns ``(mu, s_0)``.  The weights mu
    satisfy: the support of the augmented model over the initial ball never
    exceeds the support of ``s_k`` over the final localizer.

    ``columns`` instead lists several directions for one sweep, each as
    ``(k, s, H_{k-1} s)``: the direction of the localizer after the first k
    records, which joins the sweep at record ``k - 1``.  Returns
    ``(mus, S_0)`` with one row per column.
    """
    history = History.of(records)
    if columns is not None:
        return _sweep(history, columns)
    s = np.asarray(s_final, dtype=float)
    K = len(history)
    if not K:
        return np.zeros(0), s.copy()
    if final_operator is None:
        column = (K, s, history[-1].H @ s)
    else:
        column = _column(history, K, s, final_operator @ s)
    mus, S = _sweep(history, [column])
    return mus[0], S[0]


@dataclass(frozen=True)
class Checkpoint:
    """Where one certificate starts in the sweep: the first ``k`` records,
    its pathway, its sweep columns, the ``base`` weights they add to and, for
    the min-width pathway, rho, twice the average radius after them."""

    k: int
    pathway: str
    columns: tuple
    base: np.ndarray
    rho: Optional[float] = None

    @classmethod
    def at(cls, records: Sequence[HistoryRecord], k: int, pathway: str,
           state: Optional[SolverState] = None) -> "Checkpoint":
        """Start vectors of the certificate of ``records[:k]``.

        * preliminary: ``s = -c_k``.  Record k-1 gives ``H_{k-1} s``: with
          ``c_k = c_{k-1} + a g`` and ``H_{k-1} c_{k-1} = z - x``, it is
          ``-(z - x) - a Hg`` of that record, and base ``a``;
        * terminal (``k = len(records)``, the last record terminal):
          ``s = -g_{k-1}`` over the records before it and base ``e_{k-1}``, with
          ``H_{k-1} s = -records[k-1].Hg``; its gap is at most the threshold;
        * min-width: ``+-d`` for the min-width direction d of ``state.H``,
          its bottom unit eigenvector (the top one of ``-H``, from one
          eigendecomposition, which a collapsed metric does not break),
          ``state`` being the state after the k records (``state.k == k``),
          and zero base; no other pathway reads an operator.
        """
        history = History.of(records)
        if not 1 <= k <= len(history):
            raise ValueError(f"cannot certify {k} of {len(history)} records")
        last = history[k - 1]
        if pathway == TERMINAL:
            return cls(k, pathway, (_column(history, k - 1, -last.g, -last.Hg),),
                       np.append(np.zeros(k - 1), 1.0))
        if pathway == MIN_WIDTH:
            if state is None or state.k != k:
                raise ValueError(f"the min-width start at {k} needs the state "
                                 f"after {k} records")
            _, d = top_eigenpair(-state.H)
            hd = state.H @ d
            return cls(k, pathway, (_column(history, k, d, hd.copy()),
                                    _column(history, k, -d, -hd)),
                       np.zeros(k), 2.0 * avg_radius(state))
        if pathway != PRELIMINARY:
            raise ValueError(f"unknown certificate pathway {pathway!r}")
        a = history.array("a")[:k]
        if not np.any(a > 0.0):
            raise ValueError(
                "no preliminary weights accumulated; use the min-width certificate"
            )
        s = -(last.c + last.a * last.g)  # c_k, as the step that made it sums it
        return cls(k, pathway, ((k, s, (last.x - last.z) - last.a * last.Hg),), a)


def _certify_checkpoints(history: History,
                         checkpoints: Sequence[Checkpoint]) -> list[Semicertificate]:
    """The certificates of several prefixes of one run from a single
    backward sweep: one ``Semicertificate`` per checkpoint, whose weights
    are the checkpoint's ``base`` plus the sum of its columns' multipliers.
    """
    columns = [col for cp in checkpoints for col in cp.columns]
    mus, _ = augment(history[:max(cp.k for cp in checkpoints)], columns=columns)
    out, row = [], 0
    for cp in checkpoints:
        mu, head = mus[row:row + len(cp.columns), :cp.k], history[:cp.k]
        row += len(cp.columns)
        out.append(Semicertificate.from_weights(cp.base + mu.sum(axis=0), head))
    return out


def certify_run(problem: Problem, records: Sequence[HistoryRecord],
                checkpoints: Sequence[Checkpoint]) -> list[tuple]:
    """The certificates of a run's checkpoints from one backward sweep, with
    their measures: one ``(checkpoint, certificate, gap, residual,
    gap_bound)`` per checkpoint, in order.  Gap and residual are ``gap``
    and ``residual`` over the problem's initial ball, None where undefined;
    ``gap_bound`` is the min-width bound 2 rho D / (r - rho) on the gap, None
    when rho >= r (vacuous) or without a rho (the other pathways)."""
    history = History.of(records)
    x0, R = problem.x0, problem.R
    D, r = problem.feasible.diameter, problem.inner_radius
    rows = []
    for cp, cert in zip(checkpoints, _certify_checkpoints(history, checkpoints)):
        head = history[:cp.k]
        gap_k = gap(cert, head, x0, R) if cert.gamma_weighted > 0.0 else None
        residual_k = residual(cert, head, x0, R) if cert.is_certificate else None
        bound = None
        if cp.rho is not None and cp.rho < r:
            bound = 2.0 * cp.rho * D / (r - cp.rho)
        rows.append((cp, cert, gap_k, residual_k, bound))
    return rows


def certify_from_preliminary(records: Sequence[HistoryRecord]) -> Semicertificate:
    """Turn the recorded step weights into a semicertificate on the initial ball.

    Augment against the accumulated model direction ``-sum(a_i g_i)`` and
    add the multipliers to the step weights; the gap of the result never
    exceeds the sliding gap.  It starts from the records alone, so a plain
    list of records from a ``step`` loop certifies as a run's history does.
    The preliminary row of ``certify_run`` at ``len(records)``, without its
    measures.
    """
    if not records:
        raise ValueError("cannot certify an empty history")
    history = History.of(records)
    start = Checkpoint.at(history, len(history), PRELIMINARY)
    return _certify_checkpoints(history, [start])[0]
