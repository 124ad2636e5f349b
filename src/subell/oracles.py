"""Problem definitions and oracles.

A problem couples a feasible solid ``Q`` (given through a separation oracle)
with a vector field ``g`` on its interior (given through a first-order
oracle).  The solver only ever sees ``Problem.oracle``: the set's
``separator`` outside the interior of ``Q``, the first-order answer
inside.  A set's ``separator`` is also its one interior test: it returns
None at an interior point.  Three families are shipped:

* minimization of a nonsmooth convex function (max of affine pieces, or a
  convex quadratic), where ``g`` is a subgradient;
* bilinear convex-concave saddle points ``f(u, v) = u.M v`` over a product
  of two balls, where ``g = (f_u, -f_v)``;
* variational inequalities with an affine monotone operator ``V(x) = Mx + q``.

Problem files are JSON documents with keys ``kind``, ``dim``, ``x0``, ``R``,
``set`` and an objective payload, plus optional ``xstar``, ``fstar``,
``r`` (inner-ball radius) and ``V`` (semiboundedness constant).  See
``problem_from_dict`` for the exact schema; every invariant is re-validated
on load and violations fail loudly.  Matrices are symmetrized by
``linalg.symmetrize``, and every containment test on load allows the same
slack, ``LOAD_TOL``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .linalg import symmetrize

MONOTONE_TOL = 1e-10
LOAD_TOL = 1e-9  # every containment test on load: Q, the inner ball, xstar


class ProblemFormatError(ValueError):
    """A problem file or descriptor violates the schema or an invariant."""


@dataclass(slots=True)
class OracleResponse:
    """Oracle answer at a test point; a plain mutable dataclass, built once
    per oracle call.

    ``g`` is a subgradient / field value if ``productive`` (point interior to
    Q), otherwise a nonzero separator.  A zero ``g`` on a productive step
    means the test point is an exact solution and the caller must stop.
    ``f`` is the objective value at the test point when the oracle formed
    it on the way to ``g`` (productive steps of minimization problems).
    """

    g: np.ndarray
    productive: bool
    f: Optional[float] = None


# ---------------------------------------------------------------------------
# feasible sets


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def separator(self, x: np.ndarray) -> Optional[OracleResponse]:
        """The radial direction ``x - center``, or None inside the open ball.

        For every ``y`` in the ball, ``<x - center, x - y> >= 0``.
        """
        g = x - self.center
        # sqrt(g.g) is np.linalg.norm(g) bit for bit, without its overhead
        if math.sqrt(float(g.dot(g))) < self.radius:
            return None
        return OracleResponse(g, False)

    @property
    def inner_radius(self) -> float:
        return self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def max_distance_from(self, x0: np.ndarray) -> float:
        d = _square_finite(x0 - self.center, "x0 - set.center", "|x0 - set.center|")
        return float(np.linalg.norm(d)) + self.radius

    def contains(self, x: np.ndarray) -> bool:
        return float(np.linalg.norm(x - self.center)) <= self.radius + LOAD_TOL


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def separator(self, x: np.ndarray) -> Optional[OracleResponse]:
        """The most-violated coordinate axis, or None inside the open box.

        Ties resolve to the smallest coordinate index so runs are reproducible.
        """
        over = x - self.upper
        under = self.lower - x
        viol = np.maximum(over, under)
        j = int(np.argmax(viol))
        if viol[j] < 0.0:
            return None
        g = np.zeros_like(x)
        g[j] = 1.0 if over[j] >= under[j] else -1.0
        return OracleResponse(g, False)

    @property
    def inner_radius(self) -> float:
        return float(np.min(self.upper - self.lower)) / 2.0

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def max_distance_from(self, x0: np.ndarray) -> float:
        # farthest corner, coordinate by coordinate
        d = np.maximum(np.abs(self.lower - x0), np.abs(self.upper - x0))
        _square_finite(d, "x0 - farthest set corner", "|x0 - corner|")
        return float(np.linalg.norm(d))

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower - LOAD_TOL) and np.all(x <= self.upper + LOAD_TOL))


@dataclass(frozen=True)
class BallProduct:
    """Product U x V of two Euclidean balls (saddle-point feasible set)."""

    center_u: np.ndarray
    radius_u: float
    center_v: np.ndarray
    radius_v: float

    @property
    def dim_u(self) -> int:
        return self.center_u.shape[0]

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[: self.dim_u], x[self.dim_u:]

    def separator(self, x: np.ndarray) -> Optional[OracleResponse]:
        """The radial direction of the u-ball if ``|u - center_u| >= radius_u``,
        else of the v-ball; None inside the open product."""
        u, v = self.split(x)
        du, dv = u - self.center_u, v - self.center_v
        nu = float(np.linalg.norm(du))
        if nu < self.radius_u and float(np.linalg.norm(dv)) < self.radius_v:
            return None
        g = np.zeros_like(x)
        if nu >= self.radius_u:
            g[: self.dim_u] = du
        else:
            g[self.dim_u:] = dv
        return OracleResponse(g, False)

    @property
    def inner_radius(self) -> float:
        return min(self.radius_u, self.radius_v)

    @property
    def diameter(self) -> float:
        return 2.0 * float(np.hypot(self.radius_u, self.radius_v))

    def max_distance_from(self, x0: np.ndarray) -> float:
        u, v = self.split(x0)
        du = _square_finite(u - self.center_u, "x0 - set.centers[0]", "|u0 - center|")
        dv = _square_finite(v - self.center_v, "x0 - set.centers[1]", "|v0 - center|")
        return float(np.hypot(np.linalg.norm(du) + self.radius_u,
                              np.linalg.norm(dv) + self.radius_v))

    def contains(self, x: np.ndarray) -> bool:
        u, v = self.split(x)
        return (
            float(np.linalg.norm(u - self.center_u)) <= self.radius_u + LOAD_TOL
            and float(np.linalg.norm(v - self.center_v)) <= self.radius_v + LOAD_TOL
        )


# ---------------------------------------------------------------------------
# first-order oracles


@dataclass(frozen=True)
class MaxAffine:
    """Pointwise maximum of affine functions, f(x) = max_i(<a_i, x> + b_i)."""

    A: np.ndarray        # m x n row matrix of slopes
    offsets: np.ndarray  # m intercepts

    def value_and_subgrad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """f(x) and the first maximizing row of ``A`` itself, from one product
        A x: the smallest-index tie-break keeps runs deterministic."""
        v = self.A.dot(x) + self.offsets
        j = int(v.argmax())
        return float(v[j]), self.A[j]

    def max_slope_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.A, axis=1)))


@dataclass(frozen=True)
class ConvexQuadratic:
    """f(x) = x.Px/2 + q.x with symmetric positive semidefinite P."""

    P: np.ndarray
    q: np.ndarray

    def value_and_subgrad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """f(x) and the gradient P x + q, from one product P x."""
        px = self.P.dot(x)
        return 0.5 * float(x.dot(px)) + float(self.q.dot(x)), px + self.q


@dataclass(frozen=True)
class BilinearSaddle:
    """Payoff f(u, v) = u.Mv, convex in u and concave in v."""

    M: np.ndarray

    @property
    def dim_u(self) -> int:
        return self.M.shape[0]

    def field(self, x: np.ndarray) -> np.ndarray:
        """The stacked vector ``(f_u, -f_v) = (Mv, -M^T u)``."""
        u, v = x[: self.dim_u], x[self.dim_u:]
        return np.concatenate([self.M.dot(v), -self.M.T.dot(u)])


@dataclass(frozen=True)
class MonotoneAffineField:
    """V(x) = Mx + q with M + M^T positive semidefinite."""

    M: np.ndarray
    q: np.ndarray

    def field(self, x: np.ndarray) -> np.ndarray:
        return self.M.dot(x) + self.q


KIND_MAX_AFFINE = "max-of-affine"
KIND_QUADRATIC = "quadratic-over-ball"
KIND_SADDLE = "saddle-bilinear"
KIND_VI = "vi-affine-monotone"
KINDS = (KIND_MAX_AFFINE, KIND_QUADRATIC, KIND_SADDLE, KIND_VI)
# the kinds whose oracle forms an objective value along with its subgradient
MINIMIZATION_KINDS = (KIND_MAX_AFFINE, KIND_QUADRATIC)


@dataclass(frozen=True)
class Problem:
    """A validated problem instance.

    ``R`` is the radius of the initial ball around ``x0`` that is guaranteed
    to contain both Q and a solution; ``inner_radius`` is the radius of a
    Euclidean ball contained in Q; ``variation_bound`` is the
    semiboundedness constant of the field, i.e. an upper bound on
    ``<g(x), y - x>`` over interior x and feasible y.  ``oracle`` is the
    one entry the solver queries; ``f_value`` gives the objective at points
    where the oracle did not form it.
    """

    kind: str
    dim: int
    x0: np.ndarray
    R: float
    feasible: Ball | Box | BallProduct
    objective: MaxAffine | ConvexQuadratic | BilinearSaddle | MonotoneAffineField
    inner_radius: float
    variation_bound: float
    xstar: Optional[np.ndarray] = None
    fstar: Optional[float] = None

    def oracle(self, x: np.ndarray) -> OracleResponse:
        """Separation oracle outside the interior of Q, first-order oracle
        inside, from one ``separator`` call.

        On the interior of Q a minimization problem's answer also carries the
        objective value, formed from the same products as the subgradient.
        """
        if (cut := self.feasible.separator(x)) is not None:
            return cut
        if self.kind in MINIMIZATION_KINDS:
            f, g = self.objective.value_and_subgrad(x)
            return OracleResponse(g, True, f)
        return OracleResponse(self.objective.field(x), True)

    def f_value(self, x: np.ndarray) -> Optional[float]:
        """Objective value for minimization problems; None otherwise."""
        if self.kind in MINIMIZATION_KINDS:
            return self.objective.value_and_subgrad(x)[0]
        return None

    def saddle_primal_dual_gap(self, x: np.ndarray) -> float:
        """phi(u) - psi(v) for the bilinear payoff over the product of balls.

        Closed form: max/min of a linear functional over a ball.
        """
        if self.kind != KIND_SADDLE:
            raise ValueError("primal-dual gap is defined for saddle problems only")
        fs = self.feasible
        u, v = fs.split(x)
        M = self.objective.M
        phi = float(u.dot(M.dot(fs.center_v))) + fs.radius_v * float(np.linalg.norm(M.T.dot(u)))
        psi = float(fs.center_u.dot(M.dot(v))) - fs.radius_u * float(np.linalg.norm(M.dot(v)))
        return phi - psi


# ---------------------------------------------------------------------------
# file ingestion


def _vec(obj, dim: int, name: str) -> np.ndarray:
    return _square_finite(_array(obj, (dim,), name), name, f"|{name}|")


def _num(obj, name: str) -> float:
    return float(_array(obj, (), name))


def _obj(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{name} must be a JSON object")
    return obj


def _array(obj, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``obj`` as a float array of ``shape``.  Only JSON numbers are taken:
    strings, booleans and nulls are rejected, not parsed or cast, and so is
    a boolean among numbers, which numpy would cast to 1 or 0."""
    try:
        raw = np.asarray(obj)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{name} must be numeric, of shape {shape}") from exc
    entries = obj  # the entries of nested lists, for their types
    for _ in range(raw.ndim - 1):
        entries = chain.from_iterable(entries)
    if raw.dtype.kind not in "iuf" or (raw.ndim and bool in set(map(type, entries))):
        raise ProblemFormatError(f"{name} must be numeric (JSON numbers only)")
    m = np.asarray(raw, dtype=float)
    if m.shape != shape:
        raise ProblemFormatError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ProblemFormatError(f"{name} contains non-finite entries")
    return m


def _square_finite(m: np.ndarray, name: str, square: str) -> np.ndarray:
    """``m``, a vector or a matrix, once its squared norm (each row's, for a
    matrix) is a finite float; otherwise an error naming the field and row.
    The load checks and the solver form such squares (``R^2``, the norms of
    points, ``g.Hg``); one that overflowed would fail far from its field."""
    with np.errstate(over="ignore"):
        huge = np.flatnonzero(~np.isfinite(np.einsum("...i,...i", m, m)))
    if huge.size:
        where = f"{name} {huge[0]}" if m.ndim == 2 else name
        raise ProblemFormatError(f"{where} is too large: {square}^2 is not a finite float")
    return m


def _parse_set(d: dict, kind: str, dim: int):
    set_type = d["type"]
    if kind == KIND_SADDLE:
        if set_type != "ball-product":
            raise ProblemFormatError("saddle problems require a 'ball-product' set")
        centers = d["centers"]
        if not isinstance(centers, list) or len(centers) != 2:
            raise ProblemFormatError("ball-product needs a list of two centers")
        cu, cv = (_vec(c, np.size(c), "set.centers") for c in centers)
        if cu.size + cv.size != dim:
            raise ProblemFormatError("ball-product centers must split the full dimension")
        ru, rv = _array(d["radii"], (2,), "set.radii")
        if ru <= 0 or rv <= 0:
            raise ProblemFormatError("ball-product radii must be positive")
        return BallProduct(cu, ru, cv, rv)
    if set_type == "ball":
        radius = _num(d["radius"], "set.radius")
        if radius <= 0:
            raise ProblemFormatError("ball radius must be positive")
        return Ball(_vec(d["center"], dim, "set.center"), radius)
    if set_type == "box":
        lower = _vec(d["lower"], dim, "set.lower")
        upper = _vec(d["upper"], dim, "set.upper")
        if not np.all(upper > lower):
            raise ProblemFormatError("box needs upper > lower in every coordinate")
        return Box(lower, upper)
    raise ProblemFormatError(f"unknown set type {set_type!r}")


def _parse_objective(d: dict, kind: str, dim: int, feasible):
    if kind == KIND_MAX_AFFINE:
        rows = d.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ProblemFormatError("max-of-affine needs a nonempty 'rows' list")
        rows = [_obj(r, "objective row") for r in rows]
        A = _array([r["a"] for r in rows], (len(rows), dim), "row.a")
        offs = _array([r["b"] for r in rows], (len(rows),), "row.b")
        # the step forms g.Hg, which is |a|^2 at the start
        return MaxAffine(_square_finite(A, "objective row", "|a|"), offs)
    if kind == KIND_QUADRATIC:
        P = symmetrize(_array(d["P"], (dim, dim), "P"))
        if float(np.linalg.eigvalsh(P)[0]) < -MONOTONE_TOL:
            raise ProblemFormatError("quadratic objective must be convex (P >= 0)")
        return ConvexQuadratic(P, _vec(d["q"], dim, "q"))
    if kind == KIND_SADDLE:
        nu = feasible.dim_u
        M = _array(d["M"], (nu, dim - nu), "M")
        # the field stacks M v and M^T u
        _square_finite(M, "M row", "|row|")
        _square_finite(M.T, "M column", "|column|")
        return BilinearSaddle(M)
    # the last of KINDS, which _problem_from_dict has checked
    M = _array(d["M"], (dim, dim), "M")
    if float(np.linalg.eigvalsh(symmetrize(M))[0]) < -MONOTONE_TOL:
        raise ProblemFormatError("operator is not monotone (M + M^T has a negative eigenvalue)")
    return MonotoneAffineField(_square_finite(M, "M row", "|row|"), _vec(d["q"], dim, "q"))


def _default_variation_bound(kind: str, objective, feasible, x0: np.ndarray, R: float) -> float:
    # |<g(x), y-x>| <= sup|g| * diam(Q); sup|g| bounded via the containing ball
    D = feasible.diameter
    if kind == KIND_MAX_AFFINE:
        return objective.max_slope_norm() * D
    reach = float(np.linalg.norm(x0)) + R  # Q sits inside B(x0, R)
    if kind == KIND_QUADRATIC:
        M = float(np.max(np.abs(np.linalg.eigvalsh(objective.P)))) * reach
        return (M + float(np.linalg.norm(objective.q))) * D
    if kind == KIND_SADDLE:
        return float(np.linalg.norm(objective.M, 2)) * reach * D
    M = float(np.linalg.norm(objective.M, 2)) * reach
    return (M + float(np.linalg.norm(objective.q))) * D


def problem_from_dict(d: dict) -> Problem:
    """Build and validate a Problem from its JSON-compatible description."""
    try:
        return _problem_from_dict(d)
    except KeyError as exc:
        raise ProblemFormatError(f"missing required key {exc}") from exc


def _problem_from_dict(d: dict) -> Problem:
    kind = d["kind"]
    dim = _num(d["dim"], "dim")
    R = _num(d["R"], "R")
    if kind not in KINDS:
        raise ProblemFormatError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if dim < 1 or not dim.is_integer():
        raise ProblemFormatError(f"dim must be an integer >= 1, got {dim:g}")
    dim = int(dim)
    if R <= 0:
        raise ProblemFormatError("R must be positive")
    _square_finite(np.array([R]), f"R = {R:g}", "R")
    x0 = _vec(d["x0"], dim, "x0")
    feasible = _parse_set(_obj(d.get("set", {}), "set"), kind, dim)
    objective = _parse_objective(_obj(d.get("objective", {}), "objective"),
                                 kind, dim, feasible)

    # containment Q <= B(x0, R) is required for the composed oracle
    reach = feasible.max_distance_from(x0)
    if reach > R + LOAD_TOL:
        raise ProblemFormatError(
            f"feasible set is not contained in the initial ball: "
            f"max distance {reach:g} > R = {R:g}"
        )

    r = _num(d["r"], "r") if "r" in d else feasible.inner_radius
    if r <= 0 or r > feasible.inner_radius + LOAD_TOL:
        raise ProblemFormatError(
            f"inner radius {r:g} is not realized by a ball inside the feasible set "
            f"(max {feasible.inner_radius:g})"
        )
    V = _num(d["V"], "V") if "V" in d else _default_variation_bound(kind, objective, feasible, x0, R)
    if not 0 <= V < math.inf:
        raise ProblemFormatError(f"V = {V:g} must be finite and nonnegative")
    if kind == KIND_QUADRATIC:
        # the step forms g.Hg = |P x0 + q|^2 first; checked after the
        # convexity test and V, whose messages a huge P meets first
        _square_finite(objective.P, "P row", "|row|")

    xstar = _vec(d["xstar"], dim, "xstar") if d.get("xstar") is not None else None
    if xstar is not None and not feasible.contains(xstar):
        raise ProblemFormatError("xstar lies outside the feasible set")
    fstar = _num(d["fstar"], "fstar") if d.get("fstar") is not None else None

    return Problem(
        kind=kind, dim=dim, x0=x0, R=R, feasible=feasible, objective=objective,
        inner_radius=r, variation_bound=V, xstar=xstar, fstar=fstar,
    )


def problem_to_dict(p: Problem) -> dict:
    """Inverse of problem_from_dict (floats stay round-trippable via repr)."""
    if isinstance(p.feasible, Ball):
        set_d = {"type": "ball", "center": p.feasible.center.tolist(),
                 "radius": p.feasible.radius}
    elif isinstance(p.feasible, Box):
        set_d = {"type": "box", "lower": p.feasible.lower.tolist(),
                 "upper": p.feasible.upper.tolist()}
    else:
        set_d = {"type": "ball-product",
                 "centers": [p.feasible.center_u.tolist(), p.feasible.center_v.tolist()],
                 "radii": [p.feasible.radius_u, p.feasible.radius_v]}
    if p.kind == KIND_MAX_AFFINE:
        obj_d = {"rows": [{"a": a.tolist(), "b": float(b)}
                          for a, b in zip(p.objective.A, p.objective.offsets)]}
    elif p.kind == KIND_QUADRATIC:
        obj_d = {"P": p.objective.P.tolist(), "q": p.objective.q.tolist()}
    elif p.kind == KIND_SADDLE:
        obj_d = {"M": p.objective.M.tolist()}
    else:
        obj_d = {"M": p.objective.M.tolist(), "q": p.objective.q.tolist()}
    d = {
        "kind": p.kind, "dim": p.dim, "x0": p.x0.tolist(), "R": p.R,
        "set": set_d, "objective": obj_d,
        "r": p.inner_radius, "V": p.variation_bound,
    }
    if p.xstar is not None:
        d["xstar"] = p.xstar.tolist()
    if p.fstar is not None:
        d["fstar"] = p.fstar
    return d


def load_problem(path) -> Problem:
    """Load a problem from a UTF-8 JSON file; fails loudly on bad input."""
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ProblemFormatError(f"{path}: top-level JSON value must be an object")
    return problem_from_dict(d)


def save_problem(p: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(p), fh, indent=1)
        fh.write("\n")
