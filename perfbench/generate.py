"""Seeded problem generator for the benchmark.

Every workload runs on a max-of-affine function over a Euclidean ball with a
planted optimum.  The generator is independent of the test suite's helpers,
so editing the tests cannot change the benchmark's inputs, and it does not
import subell: the program under test only ever sees the JSON file written
here.
"""

from __future__ import annotations

import json

import numpy as np

BALL_RADIUS = 0.5      # feasible set: ball of this radius around the origin
INITIAL_RADIUS = 1.0   # solver's initial ball B(x0, R), x0 = origin
PLANT_SHIFT = 0.3      # |x* - center| as a share of BALL_RADIUS
FSTAR = 0.0


def max_affine_ball(seed: int, n: int, index: int = 0) -> dict:
    """Problem description for f(x) = max_j <a_j, x - x*> over a ball.

    There are m = 2n rows.  The slopes are Gaussian with their mean
    subtracted, so 0 lies in their convex hull and f >= FSTAR = f(x*)
    everywhere.  x* sits off the start point, so no run starts at the
    optimum.  The same (seed, n, index) always gives the same description;
    ``index`` numbers the problems of one seed.
    """
    rng = np.random.default_rng([seed, n, index])
    A = rng.standard_normal((2 * n, n))
    A -= A.mean(axis=0)
    u = rng.standard_normal(n)
    xstar = PLANT_SHIFT * BALL_RADIUS * u / np.linalg.norm(u)
    offsets = FSTAR - A @ xstar
    origin = [0.0] * n
    return {
        "kind": "max-of-affine",
        "dim": n,
        "x0": origin,
        "R": INITIAL_RADIUS,
        "set": {"type": "ball", "center": origin, "radius": BALL_RADIUS},
        "objective": {"rows": [{"a": a.tolist(), "b": float(b)}
                               for a, b in zip(A, offsets)]},
        "xstar": xstar.tolist(),
        "fstar": FSTAR,
    }


def write_problem(path, seed: int, n: int, index: int = 0) -> dict:
    """Write problem ``index`` of (seed, n) to ``path``; return its description."""
    problem = max_affine_ball(seed, n, index)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
    return problem
