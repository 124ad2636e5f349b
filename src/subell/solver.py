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
certificate backward pass (module ``certificates``) needs; it holds O(n)
numbers per step and no operator.  A run keeps it stacked, as a
``History``: four n-wide rows and seven scalars per step, in blocks that
are stacked once when full.  Step 4 is stated once, in ``_advance``:
``step`` applies it to the record it has just made and
``reconstruct_state`` to the recorded steps, and ``HistoryRecord.H``
replays its rank-one part (``_rank_one_update``) over the run's
``History``, so a replayed state or operator equals the run's own bit for
bit.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional, Sequence

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
    if not (math.isfinite(epsilon) and math.isfinite(r) and math.isfinite(V)):
        raise ValueError("need finite epsilon, r and V")
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class HistoryRecord:
    """Snapshot taken at the start of an iteration, before the update.

    Keeps the matrix-vector product ``Hg`` instead of the operator: with it
    the backward certificate pass carries ``H_i s`` from step to step in
    O(n), and ``_advance`` replays the update.  ``gnorm`` is ``|g|``, as
    ``step`` formed it.  ``step`` makes one plain mutable record per step;
    ``run`` stacks its fields into the run's ``History``, and indexing that
    history makes a record again, of row views and Python scalars, which
    remembers where it was read.  ``H`` replays the operator in force when
    the step was taken from those rows; a record points to its history, and
    a history to no record, so a dropped history is freed at once.
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
    gnorm: float
    # the rows of the run this record was read from, and its index there;
    # None for a record made by a bare ``step``
    _rows: object = field(default=None, repr=False, compare=False)
    _k: int = field(default=0, repr=False, compare=False)

    @property
    def H(self) -> np.ndarray:
        """The operator ``H_k`` this step was taken with, replayed from
        ``H_0 = I`` through the run's earlier steps in O(k n^2) and not
        cached.  Only the records read from a run's history have it."""
        if self._rows is None:
            raise ValueError("only a record made by run can replay its operator")
        return self._rows.operator(self._k)


# steps per block of a run's history: few enough that a block's records are
# still in cache when it is stacked
BLOCK_ROWS = 64
_VECTORS = ("x", "g", "Hg", "z")
_SCALARS = ("a", "b", "D", "sigma", "U", "productive", "gnorm")


class _Rows:
    """The rows of one ``History`` and of every view of it.

    The records of the block being filled are kept as they are; when
    ``BLOCK_ROWS`` of them have arrived, or the run stops, each field of
    theirs is stacked into one array, so growing never copies a stacked
    row.  A field is stacked by joining the bytes of the records' own
    vectors, which costs far less per step than numpy's generic stacking;
    ``step`` makes every vector of a record a contiguous float64 array.
    Reading merges the stacked blocks into one array per field, once.  A
    run's ``c`` is not stored but derived on first read.
    """

    __slots__ = ("n", "from_run", "vectors", "blocks", "open", "count")

    def __init__(self, n: int, from_run: bool):
        self.n = n
        self.from_run = from_run
        self.vectors = _VECTORS if from_run else _VECTORS + ("c",)
        self.blocks: list[dict] = []
        self.open: list[HistoryRecord] = []
        self.count = 0

    def append(self, record: HistoryRecord) -> None:
        self.open.append(record)
        self.count += 1
        if len(self.open) == BLOCK_ROWS:
            self.close()

    def close(self) -> None:
        """Stack the records of the open block; a history without steps
        gets one empty block."""
        if self.open or not self.blocks:
            records, k = self.open, len(self.open)
            block = {name: np.frombuffer(b"".join(map(attrgetter(name), records)),
                                         dtype=float).reshape(k, self.n)
                     for name in self.vectors}
            for name in _SCALARS:
                block[name] = np.fromiter(map(attrgetter(name), records), count=k,
                                          dtype=bool if name == "productive" else float)
            self.blocks.append(block)
            self.open = []

    def array(self, name: str) -> np.ndarray:
        """One field over every row, as one array."""
        self.close()
        if len(self.blocks) != 1:
            # field by field, so that only one field is ever held twice
            merged = {}
            for key in self.vectors + _SCALARS:
                merged[key] = np.concatenate([block.pop(key) for block in self.blocks])
            self.blocks = [merged]
        arrays = self.blocks[0]
        if name == "c" and "c" not in arrays:
            arrays["c"] = _prefix_sums(arrays["a"], arrays["g"])
        return arrays[name]

    def records(self, lo: int, hi: int) -> Iterator[HistoryRecord]:
        """The records of rows ``lo`` to ``hi``: row views and Python
        scalars, and, for a run, the link ``H`` replays through."""
        owner = self if self.from_run else None
        vectors = [self.array(name)[lo:hi] for name in ("x", "g", "Hg", "z", "c")]
        scalars = [self.array(name)[lo:hi].tolist() for name in _SCALARS]
        for k, (x, g, hg, z, c, a, b, D, sigma, U, productive, gnorm) in enumerate(
                zip(*vectors, *scalars), lo):
            yield HistoryRecord(x, g, a, b, hg, z, D, c, sigma, U, productive, gnorm,
                                owner, k)

    def operator(self, k: int) -> np.ndarray:
        """``H_k``, replayed from ``H_0 = I`` through the first k rows."""
        H = np.eye(self.n)
        for g, hg, b in zip(self.array("g")[:k], self.array("Hg")[:k],
                            self.array("b")[:k].tolist()):
            H = _rank_one_update(H, hg, b, 1.0 + b * float(g @ hg))
        return H


def _prefix_sums(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row k is ``c_k = sum_{i<k} a_i g_i``, summed in the order ``_advance``
    sums it and from a zero row, so it equals the run's own ``c`` bit for
    bit (a leading ``-0.0`` included)."""
    c = np.empty_like(g)
    if len(c):
        c[0] = 0.0
        np.multiply(a[:-1, None], g[:-1], out=c[1:])
        np.cumsum(c, axis=0, out=c)
    return c


class History:
    """The recorded steps of one run, stacked.

    ``x``, ``g``, ``Hg`` and ``z`` are n-wide rows, and ``a``, ``b``, ``D``,
    ``sigma``, ``U``, ``productive`` and ``gnorm`` one scalar per step:
    O(n) numbers per step.  While a run grows it, they are stacked in
    blocks of ``BLOCK_ROWS`` steps; the first read merges the blocks.  ``c``
    is not stored; it is the running sum of the rows ``a_i g_i``, derived
    once on first read.  ``array(name)`` is one field over the steps as one
    array.  ``history[k]`` is the ``HistoryRecord`` of step k, with row
    views and Python scalars, and ``history[i:j]`` a ``History`` view of the
    same rows.  ``History.of`` stacks a plain list of records, keeping the
    ``c`` each one holds.
    """

    __slots__ = ("_rows", "_lo", "_hi")

    def __init__(self, n: int):
        self._rows = _Rows(n, from_run=True)
        self._lo, self._hi = 0, None

    @classmethod
    def of(cls, records: Sequence[HistoryRecord]) -> "History":
        n = len(records[0].x) if len(records) else 0
        rows = _Rows(n, from_run=False)
        for rec in records:
            rows.append(rec)
        return cls._view(rows, 0, rows.count)

    @classmethod
    def _view(cls, rows: _Rows, lo: int, hi: int) -> "History":
        view = cls.__new__(cls)
        view._rows, view._lo, view._hi = rows, lo, hi
        return view

    def append(self, record: HistoryRecord) -> None:
        """Record one more step of the run."""
        self._rows.append(record)

    def close(self) -> None:
        """Stack the steps still held as records; a run closes its history
        when it stops, so that a kept history holds only stacked rows."""
        self._rows.close()

    def __len__(self) -> int:
        return (self._rows.count if self._hi is None else self._hi) - self._lo

    def array(self, name: str) -> np.ndarray:
        """Field ``name`` of every step, one row (or entry) per step."""
        return self._rows.array(name)[self._lo:self._lo + len(self)]

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            start, stop, stride = index.indices(size)
            if stride != 1:
                raise ValueError("a history slices with step 1 only")
            return History._view(self._rows, self._lo + start,
                                 self._lo + max(start, stop))
        k = operator.index(index)
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError(f"step {index} outside a history of {size}")
        return next(self._rows.records(self._lo + k, self._lo + k + 1))

    def __iter__(self) -> Iterator[HistoryRecord]:
        return self._rows.records(self._lo, self._lo + len(self))


def initial_state(problem: Problem) -> SolverState:
    n = problem.dim
    return SolverState(
        k=0,
        x=np.array(problem.x0, dtype=float),
        H=np.eye(n),
        Rsq=problem.R ** 2,
        c=np.zeros(n),
        sigma=0.0,
        Gamma=0.0,
        R0=problem.R,
        x0=np.array(problem.x0, dtype=float),
    )


def _localizer(state: SolverState) -> tuple[np.ndarray, float, float, float]:
    """The center z and squared radius D of the ellipsoid part of the
    localizer, with the scalars ``<c, Hc>`` and ``<c, z>`` that D, the
    support ``U`` and the sliding gap read; the only place the solver forms
    ``H c``.

    Completing the square in  -l(x) + |x - x_k|_G^2 / 2 <= R_k^2 / 2  gives
    z = x + Hc and D = R^2 - 2(sigma - <c, x>) + <c, Hc>.
    """
    c = state.c
    hc = state.H @ c
    z = state.x + hc
    cHc = float(c @ hc)
    D = state.Rsq - 2.0 * (state.sigma - float(c @ state.x)) + cHc
    if D < 0.0:
        if D < -1e-12 * max(1.0, state.Rsq):
            raise SolverBreakdown(
                f"localizer radius went negative (D = {D:g} at k = {state.k})"
            )
        D = 0.0
    return z, D, cHc, float(c @ z)


def localizer_geometry(state: SolverState) -> tuple[np.ndarray, float]:
    z, D, _, _ = _localizer(state)
    return z, D


def _u_from_grams(state, g, hg, gHg, z, D, cHc, cz) -> float:
    """Support of g over the localizer, via the single-cut support function
    with all quadratic forms scaled by D; ``gHg``, ``cHc`` and ``cz`` are
    the step's and the localizer's own scalars."""
    lead = float(g @ (state.x - z))
    if D == 0.0:
        return lead
    cHg = float(state.c @ hg)
    return lead + _xi_gram(D * gHg, -D * cHg, D * cHc, state.sigma - cz)


def _rank_one_update(H: np.ndarray, hg: np.ndarray, b: float,
                     denom: float) -> np.ndarray:
    """The inverse metric after one step: ``H - (b / denom) hg hg^T``.

    With ``hg = H g`` and ``denom = 1 + b g.Hg`` this is the Sherman-Morrison
    inverse of ``H^-1 + b g g^T``; ``H`` itself is returned when ``b == 0``.
    ``_advance`` and ``HistoryRecord.H`` both update through here, so a
    replayed operator equals the one the run formed bit for bit.
    """
    if b < 0.0:
        raise ValueError(f"update weight must be nonnegative, got {b:g}")
    if b == 0.0:
        return H
    # the rank-one downdate preserves exact symmetry elementwise
    # (hg[i]*hg[j] rounds identically to hg[j]*hg[i]), so no extra
    # symmetrization pass is needed in the hot loop
    new_H = hg[:, None] * hg
    new_H *= -(b / denom)
    new_H += H
    return new_H


def _advance(state: SolverState, rec: HistoryRecord,
             t: Optional[float] = None) -> SolverState:
    """The state after the nonterminal step ``rec`` taken at ``state``.

    Shifts the point along ``H g``, applies the rank-one update to ``H`` and
    rolls the ``(R^2, c, sigma, Gamma, log det H)`` recurrences forward,
    all from the recorded ``(g, a, b, Hg, U, |g|)``; ``t`` is ``g.Hg`` when
    the caller already has it.  The only statement of the update.
    """
    g, hg, a, b = rec.g, rec.Hg, rec.a, rec.b
    if t is None:
        t = float(g @ hg)
    denom = 1.0 + b * t
    shift = a + 0.5 * b * rec.U
    return SolverState(
        state.k + 1,
        state.x - (shift / denom) * hg,
        _rank_one_update(state.H, hg, b, denom),
        state.Rsq + shift ** 2 * t / denom,
        state.c + a * g,
        state.sigma + a * float(g @ state.x),
        state.Gamma + a * rec.gnorm,
        state.R0,
        state.x0,
        state.log_det_H - math.log1p(b * t),
    )


def step(state: SolverState, response: OracleResponse, config: StrategyConfig,
         *, localizer=None) -> tuple[SolverState, HistoryRecord, bool]:
    """One iteration: record, test termination, update.

    ``U_k`` is the support of ``g_k`` over the localizer, and the step
    weights are ``a_k = (alpha_k R + theta gamma R_k / 2) / |g_k|_k`` and
    ``b_k = gamma / |g_k|_k^2``; the record carries all three.  Each product
    is formed once: ``g.Hg`` and ``|g|`` here, ``<c, Hc>`` and ``<c, z>`` in
    the localizer.  ``localizer`` is ``_localizer(state)`` when the caller
    already has it.  Returns ``(new_state, record, terminal)``; the record
    is a fresh mutable dataclass that shares the state's ``x`` and ``c``
    arrays, which nothing writes to, and ``state`` is left untouched.  On a
    terminal iteration (U_k <= delta |g_k|, which a zero oracle vector
    always meets) the weights are zero and the state is returned unchanged;
    otherwise the new state is ``_advance(state, record)``.
    """
    g = response.g.astype(float)
    z, D, cHc, cz = localizer if localizer is not None else _localizer(state)
    hg = state.H @ g
    t = float(g @ hg)
    U = _u_from_grams(state, g, hg, t, z, D, cHc, cz)
    # equals np.linalg.norm(g) bit for bit: norm of a 1-D float array is
    # sqrt(g.dot(g))
    gnorm = math.sqrt(float(g @ g))

    terminal = U <= config.delta_term * gnorm
    if terminal:
        a = b = 0.0
    else:
        a = (config.alpha(state.k) * state.R0
             + 0.5 * config.theta * config.gamma * math.sqrt(state.Rsq)) / math.sqrt(t)
        b = config.gamma / t

    # nothing writes to a state's arrays or to hg once made, so the record
    # can share them
    record = HistoryRecord(state.x, g, a, b, hg, z, D, state.c,
                           state.sigma, U, response.productive, gnorm)
    if terminal:
        return state, record, True
    return _advance(state, record, t), record, False


def sliding_gap(state: SolverState, *, localizer=None) -> float:
    """max of the accumulated linear model over the current ellipsoid,
    normalized by Gamma_k; undefined when no step weight was accumulated
    (the standard ellipsoid strategy).  ``localizer`` is
    ``_localizer(state)`` when the caller already has it."""
    if state.Gamma <= 0.0:
        raise ValueError("sliding gap undefined: no accumulated step weights")
    _, D, cHc, cz = localizer if localizer is not None else _localizer(state)
    # the guard's scale matters only when round-off made <c, Hc> negative
    cn = math.sqrt(cHc) if cHc >= 0.0 else nonneg_sqrt(
        cHc, max(1.0, float(state.c @ state.c)))
    return (state.sigma - cz + math.sqrt(D) * cn) / state.Gamma


def avg_radius(state: SolverState) -> float:
    """Ellipsoid-method progress measure R_k det(H_k)^(1/2n): the volume
    radius of the metric ellipsoid of radius R_k."""
    n = state.x.shape[0]
    return math.sqrt(state.Rsq) * math.exp(state.log_det_H / (2.0 * n))


@dataclass(slots=True)
class TraceRow:
    """One row of a run's trace, taken at the start of iteration k (before
    the update).  A plain mutable dataclass built once per iteration;
    ``cert_gap`` is filled in by callers that certify."""

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
    records: History
    state: SolverState
    termination: str

    @property
    def iterations(self) -> int:
        return len(self.records)


def run(problem: Problem, config: StrategyConfig, max_iter: int,
        collect_trace: bool = True, keep_operators: bool = False) -> RunResult:
    """Drive the scheme against the composed oracle of a problem.

    Stops at ``max_iter``, at the gap test ``U_k <= delta_term |g_k|``, or
    when the oracle reports a zero vector (the test point is then an exact
    solution; the trailing history record carries it with unit certificate
    weight semantics).  The localizer is formed once per iteration and
    shared by the step and the trace row.

    The history holds O(n) numbers per step and no operator: ``run`` appends
    the fields of each record ``step`` makes to a ``History``, and
    ``record.H`` of a record read from it replays its operator on demand.
    ``keep_operators`` is accepted for older callers and ignored.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    state = initial_state(problem)
    rows: list[TraceRow] = []
    records = History(problem.dim)
    termination = "max-iter"
    for _ in range(max_iter):
        t_start = time.perf_counter()
        resp = problem.oracle(state.x)
        localizer = _localizer(state)
        new_state, record, terminal = step(state, resp, config, localizer=localizer)
        records.append(record)
        if collect_trace:
            rows.append(_trace_row(problem, config, state, resp, localizer,
                                   time.perf_counter() - t_start))
        if terminal:
            termination = "gap-threshold" if np.any(resp.g) else "zero-subgradient"
            break
        state = new_state
    records.close()
    return RunResult(rows=rows, records=records, state=state, termination=termination)


def reconstruct_state(problem: Problem, records: Sequence[HistoryRecord],
                      k: int, final_state: SolverState, *,
                      start: Optional[SolverState] = None) -> SolverState:
    """State after the first k recorded steps of a run.

    ``final_state`` when k is the number of records; otherwise the records
    from ``start`` (default: the initial state) up to k replayed through
    ``_advance``, which equals the run's own state bit for bit.  Chaining
    increasing checkpoints through ``start`` replays each record once, in
    O(n^2) per record.
    """
    if k == len(records):
        return final_state
    state = initial_state(problem) if start is None else start
    if not state.k <= k < len(records):
        raise ValueError(f"checkpoint {k} outside the recorded range "
                         f"[{state.k}, {len(records)}]")
    for rec in records[state.k:k]:
        state = _advance(state, rec)
    return state


def _trace_row(problem, config, state, resp, localizer, elapsed_s) -> TraceRow:
    gap = None
    if state.k >= 1 and state.Gamma > 0.0:
        gap = sliding_gap(state, localizer=localizer)
    return TraceRow(
        state.k,
        config.variant,
        resp.productive,
        resp.f if resp.f is not None else problem.f_value(state.x),
        gap,
        None,
        math.sqrt(state.Rsq),
        avg_radius(state),
        state.Gamma,
        elapsed_s * 1e6,
    )
