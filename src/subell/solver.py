"""General subgradient-ellipsoid scheme and its four parameter strategies.

One iteration, starting from the test point ``x_k`` with inverse metric
``H_k``, radius ``R_k``, accumulated linear model ``(c_k, sigma_k)`` and
weight mass ``Gamma_k``:

1. query the composed oracle for ``g_k``;
2. compute ``U_k``, the support of ``g_k`` over the current localizer
   (the ellipsoid given by ``(z_k, D_k)`` intersected with the halfspace
   ``<c_k, x> <= sigma_k``), and stop if ``U_k <= delta |g_k|``;
3. pick step weights ``a_k = (alpha_k R + theta gamma R_k / 2) / |g_k|_k``
   and ``b_k = gamma / |g_k|_k^2`` where ``|g|_k^2 = g.H_k g``;
4. shift the point along ``H_k g_k``, apply the rank-one inverse update to
   ``H_k``, and roll the ``(R^2, c, sigma, Gamma)`` recurrences forward.

The four shipped strategies differ only in ``(alpha, theta, gamma)``:
pure subgradient steps (``gamma = 0``), the standard ellipsoid method
(``alpha = theta = 0``), the ellipsoid method with a preliminary
semicertificate (``alpha = 0, theta = sqrt(2) - 1``), and the combined
subgradient-ellipsoid method (``theta = 2^(1/3) - 1``).

Everything per iteration costs O(n^2): two matrix-vector products plus a
rank-one update.  The per-step history recorded here is exactly what the
certificate backward pass (module ``certificates``) needs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .linalg import nonneg_sqrt
from .oracles import OracleResponse, Problem
from .support import _xi_gram

VARIANT_SUBGRADIENT = "subgradient"
VARIANT_ELLIPSOID = "ellipsoid"
VARIANT_ELLIPSOID_CERT = "ellipsoid-cert"
VARIANT_SUBGRAD_ELLIPSOID = "subgrad-ellipsoid"
VARIANTS = (
    VARIANT_SUBGRADIENT,
    VARIANT_ELLIPSOID,
    VARIANT_ELLIPSOID_CERT,
    VARIANT_SUBGRAD_ELLIPSOID,
)

THETA_ELLIPSOID_CERT = math.sqrt(2.0) - 1.0
THETA_SUBGRAD_ELLIPSOID = 2.0 ** (1.0 / 3.0) - 1.0


class SolverBreakdown(RuntimeError):
    """Numerical invariant violated beyond round-off tolerance."""


def gamma_opt(c: float, p: float) -> float:
    """Dilation coefficient minimizing the per-step volume factor.

    gamma_c(p) = 2 / (sqrt(c^2 p^2 - (2c - 1)) + c p - 1), valid for
    c >= 1/2, p >= 2; the value always lies in [1/(cp), 2/(cp)].
    """
    if c < 0.5 or p < 2.0:
        raise ValueError(f"gamma_opt needs c >= 1/2 and p >= 2, got c={c:g}, p={p:g}")
    return 2.0 / (math.sqrt(c * c * p * p - (2.0 * c - 1.0)) + c * p - 1.0)


def q_and_zeta(c: float, p: float, gamma: float) -> tuple[float, float]:
    """Growth factor q_c(gamma) = 1 + c g^2 / (2(1+g)) of the squared radius
    and the volume factor zeta_{p,c}(gamma) = q^p / (1+gamma)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    q = 1.0 + c * gamma * gamma / (2.0 * (1.0 + gamma))
    return q, q ** p / (1.0 + gamma)


def delta_from_target(epsilon: float, r: float, V: float) -> float:
    """Gap threshold guaranteeing residual <= epsilon: eps*r / (eps + V)."""
    if epsilon <= 0 or r <= 0 or V < 0:
        raise ValueError("need epsilon > 0, r > 0, V >= 0")
    return epsilon * r / (epsilon + V)


@dataclass(frozen=True)
class Schedule:
    """Step-coefficient schedule beta_k: 1/sqrt(K) (horizon fixed up front)
    or the horizon-free 1/sqrt(k+1)."""

    kind: str  # "const" | "decay"
    horizon: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("const", "decay"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "const" and (self.horizon is None or self.horizon < 1):
            raise ValueError("const schedule needs a horizon K >= 1")

    def beta(self, k: int) -> float:
        if self.kind == "const":
            return 1.0 / math.sqrt(self.horizon)
        return 1.0 / math.sqrt(k + 1.0)

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        if text == "decay":
            return cls("decay")
        if text.startswith("const:"):
            return cls("const", int(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse schedule {text!r}; use 'decay' or 'const:K'")


@dataclass(frozen=True)
class StrategyConfig:
    """Parameter strategy: variant name, (theta, gamma), the alpha schedule
    and the termination tolerance of the gap test U_k <= delta |g_k|."""

    variant: str
    theta: float
    gamma: float
    alpha_scale: float = 0.0
    schedule: Optional[Schedule] = None
    delta_term: float = 0.0

    def alpha(self, k: int) -> float:
        if self.alpha_scale == 0.0:
            return 0.0
        return self.alpha_scale * self.schedule.beta(k)

    @classmethod
    def for_variant(
        cls,
        variant: str,
        dim: int,
        schedule: Optional[Schedule] = None,
        delta_term: float = 0.0,
        theta: Optional[float] = None,
    ) -> "StrategyConfig":
        if variant == VARIANT_SUBGRADIENT:
            return cls(variant, theta=0.0, gamma=0.0, alpha_scale=1.0,
                       schedule=schedule or Schedule("decay"), delta_term=delta_term)
        if variant == VARIANT_ELLIPSOID:
            if dim < 2:
                raise ValueError("the standard ellipsoid strategy needs dim >= 2")
            return cls(variant, theta=0.0, gamma=gamma_opt(0.5, dim),
                       delta_term=delta_term)
        if variant == VARIANT_ELLIPSOID_CERT:
            th = THETA_ELLIPSOID_CERT if theta is None else theta
            return cls(variant, theta=th, gamma=gamma_opt(1.0, 2 * dim),
                       delta_term=delta_term)
        if variant == VARIANT_SUBGRAD_ELLIPSOID:
            th = THETA_SUBGRAD_ELLIPSOID if theta is None else theta
            return cls(variant, theta=th, gamma=gamma_opt(1.0, 2 * dim),
                       alpha_scale=math.sqrt(th / (th + 1.0)),
                       schedule=schedule or Schedule("decay"), delta_term=delta_term)
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass
class SolverState:
    """Per-iteration state: everything the next step needs, O(n^2) memory."""

    k: int
    x: np.ndarray        # current test point
    H: np.ndarray        # inverse metric (identity at k = 0)
    Rsq: float           # squared localizer radius in the current metric
    c: np.ndarray        # accumulated linear model: sum a_i g_i
    sigma: float         # accumulated offsets:      sum a_i <g_i, x_i>
    Gamma: float         # accumulated weight mass:  sum a_i |g_i|
    R0: float
    x0: np.ndarray
    log_det_H: float = 0.0


@dataclass(frozen=True)
class HistoryRecord:
    """Snapshot taken at the start of an iteration, before the update.

    Keeps the matrix-vector product ``Hg`` instead of the full operator:
    with it the backward certificate pass carries ``H_i s`` from step to
    step in O(n), and ``operators_at`` replays any ``H_k`` from ``H_0 = I``;
    ``H`` itself is retained only in full-history mode.
    """

    x: np.ndarray
    g: np.ndarray
    a: float
    b: float
    Hg: np.ndarray
    z: np.ndarray
    D: float
    c: np.ndarray
    sigma: float
    U: float
    productive: bool
    H: Optional[np.ndarray] = None


def initial_state(problem: Problem) -> SolverState:
    n = problem.dim
    return SolverState(
        k=0,
        x=problem.x0.copy(),
        H=np.eye(n),
        Rsq=problem.R ** 2,
        c=np.zeros(n),
        sigma=0.0,
        Gamma=0.0,
        R0=problem.R,
        x0=problem.x0.copy(),
    )


def _localizer(state: SolverState) -> tuple[np.ndarray, np.ndarray, float]:
    """``H c`` with the center z and squared radius D of the ellipsoid part
    of the localizer; the only place the solver forms ``H c``.

    Completing the square in  -l(x) + |x - x_k|_G^2 / 2 <= R_k^2 / 2  gives
    z = x + Hc and D = R^2 - 2(sigma - <c, x>) + <c, Hc>.
    """
    hc = state.H @ state.c
    z = state.x + hc
    D = state.Rsq - 2.0 * (state.sigma - float(state.c @ state.x)) + float(state.c @ hc)
    if D < 0.0:
        if D < -1e-12 * max(1.0, state.Rsq):
            raise SolverBreakdown(
                f"localizer radius went negative (D = {D:g} at k = {state.k})"
            )
        D = 0.0
    return hc, z, D


def localizer_geometry(state: SolverState) -> tuple[np.ndarray, float]:
    _, z, D = _localizer(state)
    return z, D


def _u_from_grams(state, g, hg, hc, z, D) -> float:
    """Support of g over the localizer, via the single-cut support function
    with all quadratic forms scaled by D."""
    lead = float(g @ (state.x - z))
    if D == 0.0:
        return lead
    gHg = float(g @ hg)
    cHg = float(state.c @ hg)
    cHc = float(state.c @ hc)
    beta = state.sigma - float(state.c @ z)
    return lead + _xi_gram(D * gHg, -D * cHg, D * cHc, beta)


def _rank_one_update(H: np.ndarray, hg: np.ndarray, b: float,
                     denom: float) -> np.ndarray:
    """The inverse metric after one step: ``H - (b / denom) hg hg^T``.

    With ``hg = H g`` and ``denom = 1 + b g.Hg`` this is the Sherman-Morrison
    inverse of ``H^-1 + b g g^T``; ``H`` itself is returned when ``b == 0``.
    ``step`` and ``operators_at`` both update through here, so a replayed
    operator equals the one the run formed bit for bit.
    """
    if b < 0.0:
        raise ValueError(f"update weight must be nonnegative, got {b:g}")
    if b == 0.0:
        return H
    # the rank-one downdate preserves exact symmetry elementwise
    # (hg[i]*hg[j] rounds identically to hg[j]*hg[i]), so no extra
    # symmetrization pass is needed in the hot loop
    new_H = np.outer(hg, hg)
    new_H *= -(b / denom)
    new_H += H
    return new_H


def step(state: SolverState, response: OracleResponse, config: StrategyConfig,
         keep_operator: bool = True, *, localizer=None
         ) -> tuple[SolverState, HistoryRecord, bool]:
    """One iteration: record, test termination, update.

    ``U_k`` is the support of ``g_k`` over the localizer, and the step
    weights are ``a_k = (alpha_k R + theta gamma R_k / 2) / |g_k|_k`` and
    ``b_k = gamma / |g_k|_k^2``; the record carries all three.
    ``localizer`` is ``_localizer(state)`` when the caller already has it.
    Returns ``(new_state, record, terminal)``.  On a terminal iteration
    (U_k <= delta |g_k|) the state is returned unchanged.
    """
    g = response.g
    hc, z, D = localizer if localizer is not None else _localizer(state)
    hg = state.H @ g
    U = _u_from_grams(state, g, hg, hc, z, D)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= 0.0:
        raise ValueError("step needs a nonzero oracle vector")

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

    # hg is a fresh product that nothing below writes to, so the record can
    # hold it without a copy
    record = HistoryRecord(
        x=state.x.copy(), g=g.copy(), a=a, b=b, Hg=hg, z=z, D=D,
        c=state.c.copy(), sigma=state.sigma, U=U, productive=response.productive,
        H=state.H.copy() if keep_operator else None,
    )
    if terminal:
        return state, record, True

    t = float(g @ hg)
    denom = 1.0 + b * t
    coef = (a + 0.5 * b * U) / denom
    new_x = state.x - coef * hg
    new_state = SolverState(
        k=state.k + 1,
        x=new_x,
        H=_rank_one_update(state.H, hg, b, denom),
        Rsq=state.Rsq + (a + 0.5 * b * U) ** 2 * t / denom,
        c=state.c + a * g,
        sigma=state.sigma + a * float(g @ state.x),
        Gamma=state.Gamma + a * gnorm,
        R0=state.R0,
        x0=state.x0,
        log_det_H=state.log_det_H - math.log1p(b * t),
    )
    return new_state, record, False


def sliding_gap(state: SolverState, *, localizer=None) -> float:
    """max of the accumulated linear model over the current ellipsoid,
    normalized by Gamma_k; undefined when no step weight was accumulated
    (the standard ellipsoid strategy).  ``localizer`` is
    ``_localizer(state)`` when the caller already has it."""
    if state.Gamma <= 0.0:
        raise ValueError("sliding gap undefined: no accumulated step weights")
    hc, z, D = localizer if localizer is not None else _localizer(state)
    cn = nonneg_sqrt(float(state.c @ hc), max(1.0, float(state.c @ state.c)))
    return (state.sigma - float(state.c @ z) + math.sqrt(D) * cn) / state.Gamma


def avg_radius(state: SolverState) -> float:
    """Ellipsoid-method progress measure R_k det(H_k)^(1/2n): the volume
    radius of the metric ellipsoid of radius R_k."""
    n = state.x.shape[0]
    return math.sqrt(state.Rsq) * math.exp(state.log_det_H / (2.0 * n))


@dataclass(frozen=True)
class TraceRow:
    k: int
    variant: str
    productive: bool
    f_value: Optional[float]
    sliding_gap: Optional[float]
    cert_gap: Optional[float]
    R_k: float
    avrad: float
    Gamma_k: float
    wall_time_us: float


@dataclass
class RunResult:
    rows: list[TraceRow]
    records: list[HistoryRecord]
    state: SolverState
    termination: str

    @property
    def iterations(self) -> int:
        return len(self.records)


def run(problem: Problem, config: StrategyConfig, max_iter: int,
        collect_trace: bool = True, keep_operators: bool = True) -> RunResult:
    """Drive the scheme against the composed oracle of a problem.

    Stops at ``max_iter``, at the gap test ``U_k <= delta_term |g_k|``, or
    when the oracle reports a zero vector (the test point is then an exact
    solution; the trailing history record carries it with unit certificate
    weight semantics).

    By default each record also keeps its operator ``H_k`` (O(k n^2)
    memory); ``keep_operators=False`` leaves it off, the storage-lean O(k n)
    format, from which ``operators_at`` replays the same operators bit for
    bit.  The localizer is formed once per iteration and shared by the step
    and the trace row.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    state = initial_state(problem)
    rows: list[TraceRow] = []
    records: list[HistoryRecord] = []
    termination = "max-iter"
    for _ in range(max_iter):
        t_start = time.perf_counter()
        resp = problem.oracle(state.x)
        localizer = _localizer(state)
        if not np.any(resp.g):
            _, z, D = localizer
            records.append(HistoryRecord(
                x=state.x.copy(), g=resp.g.copy(), a=0.0, b=0.0,
                Hg=np.zeros_like(resp.g), z=z, D=D, c=state.c.copy(),
                sigma=state.sigma, U=0.0, productive=resp.productive,
                H=state.H.copy() if keep_operators else None,
            ))
            if collect_trace:
                rows.append(_trace_row(problem, config, state, resp, localizer,
                                       time.perf_counter() - t_start))
            termination = "zero-subgradient"
            break
        new_state, record, terminal = step(state, resp, config,
                                           keep_operator=keep_operators,
                                           localizer=localizer)
        records.append(record)
        if collect_trace:
            rows.append(_trace_row(problem, config, state, resp, localizer,
                                   time.perf_counter() - t_start))
        if terminal:
            termination = "gap-threshold"
            break
        state = new_state
    return RunResult(rows=rows, records=records, state=state, termination=termination)


def operators_at(records: Sequence[HistoryRecord],
                 ks: Iterable[int]) -> Iterator[np.ndarray]:
    """Yield the operator ``H_k`` in force after the first k recorded steps,
    for each k of the increasing sequence ``ks``.

    Replays the recorded rank-one updates from ``H_0 = I`` through
    ``_rank_one_update``, so each ``H_k`` equals the run's own operator bit
    for bit; one n x n operator is held at a time.  A terminal record
    carries ``b = 0``, so after it the replay still yields ``H_{K-1}``.
    """
    H = np.eye(records[0].x.shape[0])
    done = 0
    for k in ks:
        for rec in records[done:k]:
            H = _rank_one_update(H, rec.Hg, rec.b, 1.0 + rec.b * float(rec.g @ rec.Hg))
        done = k
        yield H


def reconstruct_state(problem: Problem, records: Sequence[HistoryRecord],
                      k: int, final_state: SolverState, *,
                      operator: Optional[np.ndarray] = None) -> SolverState:
    """State after the first k recorded steps, rebuilt from the history.

    The operator ``H_k`` is ``operator`` when given (e.g. from
    ``operators_at``), else the one on ``records[k]``, so lean records need
    ``operator`` unless k equals the total number of recorded steps.  The
    scalar recurrences are replayed from the recorded (a, b, U, Hg) data.
    """
    if k == len(records):
        return final_state
    if not 0 <= k < len(records):
        raise ValueError(f"checkpoint {k} outside the recorded range")
    rec = records[k]
    H = operator if operator is not None else rec.H
    if H is None:
        raise ValueError("reconstruction at an interior checkpoint of a lean "
                         "history needs its operator")
    Rsq = problem.R ** 2
    Gamma = 0.0
    log_det = 0.0
    for r in records[:k]:
        t = float(r.g @ r.Hg)
        denom = 1.0 + r.b * t
        Rsq += (r.a + 0.5 * r.b * r.U) ** 2 * t / denom
        Gamma += r.a * float(np.linalg.norm(r.g))
        log_det -= math.log1p(r.b * t)
    return SolverState(
        k=k, x=rec.x.copy(), H=H.copy(), Rsq=Rsq, c=rec.c.copy(),
        sigma=rec.sigma, Gamma=Gamma, R0=problem.R, x0=problem.x0.copy(),
        log_det_H=log_det,
    )


def _trace_row(problem, config, state, resp, localizer, elapsed_s) -> TraceRow:
    gap = None
    if state.k >= 1 and state.Gamma > 0.0:
        gap = sliding_gap(state, localizer=localizer)
    return TraceRow(
        k=state.k,
        variant=config.variant,
        productive=resp.productive,
        f_value=resp.f if resp.f is not None else problem.f_value(state.x),
        sliding_gap=gap,
        cert_gap=None,
        R_k=math.sqrt(state.Rsq),
        avrad=avg_radius(state),
        Gamma_k=state.Gamma,
        wall_time_us=elapsed_s * 1e6,
    )
