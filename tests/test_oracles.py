import json

import numpy as np
import pytest

from subell.oracles import (
    Ball,
    BilinearSaddle,
    Box,
    MaxAffine,
    MonotoneAffineField,
    ProblemFormatError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)

from helpers import (
    max_affine_ball,
    max_affine_box,
    random_spd,
    saddle_problem,
    vi_problem,
)


def _ball_points(rng, center, radius, count):
    d = rng.standard_normal((count, len(center)))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = radius * rng.uniform(0, 1, (count, 1)) ** (1.0 / len(center))
    return center + d * r


class TestSeparationBall:
    def test_radial_separator(self):
        rng = np.random.default_rng(0)
        resp = Ball(np.zeros(2), 1.0).separator(np.array([2.0, 0.0]))
        assert np.array_equal(resp.g, np.array([2.0, 0.0]))
        assert not resp.productive
        ys = _ball_points(rng, np.zeros(2), 1.0, 10_000)
        assert np.all((np.array([2.0, 0.0]) - ys) @ resp.g >= -1e-12)

    def test_boundary_point_is_valid(self):
        x = np.array([1.0, 0.0])
        resp = Ball(np.zeros(2), 1.0).separator(x)
        assert np.array_equal(resp.g, x)

    def test_separation_inequality_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            center = rng.standard_normal(n)
            radius = float(rng.uniform(0.2, 2.0))
            d = rng.standard_normal(n)
            x = center + float(rng.uniform(1.0, 3.0)) * radius * d / np.linalg.norm(d)
            resp = Ball(center, radius).separator(x)
            ys = _ball_points(rng, center, radius, 10_000)
            assert np.min((x - ys) @ resp.g) >= -1e-10

    def test_interior_point_is_a_caller_bug(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 1.0).separator(np.zeros(2))


class TestSeparationBox:
    def test_most_violated_coordinate(self):
        lo, hi = -np.ones(3), np.ones(3)
        resp = Box(lo, hi).separator(np.array([1.5, -3.0, 0.0]))
        assert np.array_equal(resp.g, np.array([0.0, -1.0, 0.0]))

    def test_tie_breaks_to_smallest_index(self):
        lo, hi = -np.ones(2), np.ones(2)
        resp = Box(lo, hi).separator(np.array([2.0, 2.0]))
        assert np.array_equal(resp.g, np.array([1.0, 0.0]))

    def test_separation_inequality_sampled(self):
        rng = np.random.default_rng(2)
        lo, hi = -np.ones(3), np.ones(3)
        for _ in range(20):
            x = rng.uniform(-3, 3, 3)
            if np.all(x > lo) and np.all(x < hi):
                continue
            resp = Box(lo, hi).separator(x)
            ys = rng.uniform(-1, 1, (5000, 3))
            assert np.min((x - ys) @ resp.g) >= -1e-12


class TestMaxAffineSubgradient:
    def test_single_row(self):
        a = np.array([2.0, -1.0])
        f = MaxAffine(a[None, :], np.array([0.5]))
        for x in (np.zeros(2), np.ones(2), np.array([-3.0, 7.0])):
            assert np.array_equal(f.value_and_subgrad(x)[1], a)

    def test_symmetric_tie_takes_first(self):
        f = MaxAffine(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        g = f.value_and_subgrad(np.array([0.0, 0.3]))[1]
        assert np.array_equal(g, np.array([1.0, 0.0]))

    def test_subgradient_inequality_sampled(self):
        rng = np.random.default_rng(3)
        f = MaxAffine(rng.standard_normal((6, 3)), rng.standard_normal(6))
        for _ in range(10):
            x = rng.standard_normal(3)
            g = f.value_and_subgrad(x)[1]
            ys = rng.standard_normal((1000, 3)) * 3
            fx = f.value_and_subgrad(x)[0]
            vals = np.array([f.value_and_subgrad(y)[0] for y in ys])
            assert np.all(vals >= fx + (ys - x) @ g - 1e-10)


class TestComposedOracle:
    def test_dispatch(self):
        prob = max_affine_ball(np.random.default_rng(4), 3)
        inside = prob.oracle(prob.x0)
        assert inside.productive
        outside = prob.oracle(prob.x0 + np.array([0.9, 0, 0]))
        assert not outside.productive
        assert np.allclose(outside.g, np.array([0.9, 0, 0]))

    def test_solution_monotonicity_condition(self):
        # <G(x), x - x*> >= 0 over 10^4 random points per problem family
        rng = np.random.default_rng(5)
        probs = [max_affine_ball(rng, 3), saddle_problem(rng, 2, 2),
                 vi_problem(rng, 3, skew=False)]
        for prob in probs:
            xstar = prob.xstar
            for _ in range(10_000):
                x = prob.x0 + rng.standard_normal(prob.dim) * rng.uniform(0, 2)
                resp = prob.oracle(x)
                assert float(resp.g @ (x - xstar)) >= -1e-12

    def test_nonproductive_separator_is_nonzero(self):
        rng = np.random.default_rng(6)
        prob = max_affine_box(rng, 3)
        for _ in range(200):
            x = rng.uniform(-2, 2, 3)
            resp = prob.oracle(x)
            if not resp.productive:
                assert np.any(resp.g)


class TestOracleObjectiveValue:
    """A productive answer of a minimization problem carries f(x), bit for
    bit the value ``Problem.f_value`` and the defining formula give."""

    def test_value_matches_f_value_bit_for_bit(self):
        rng = np.random.default_rng(40)
        quad = problem_from_dict({
            "kind": "quadratic-over-ball", "dim": 4, "x0": [0.0] * 4, "R": 1.0,
            "set": {"type": "ball", "center": [0.0] * 4, "radius": 0.5},
            "objective": {"P": random_spd(rng, 4).tolist(),
                          "q": rng.standard_normal(4).tolist()},
        })
        for prob in (max_affine_ball(rng, 4), max_affine_box(rng, 3), quad):
            obj = prob.objective
            productive = 0
            for _ in range(500):
                x = prob.x0 + rng.standard_normal(prob.dim) * rng.uniform(0.0, 0.6)
                resp = prob.oracle(x)
                if not resp.productive:
                    assert resp.f is None
                    continue
                productive += 1
                if prob.kind == "max-of-affine":
                    want = float(np.max(obj.A @ x + obj.offsets))
                    assert np.array_equal(
                        resp.g, obj.A[int(np.argmax(obj.A @ x + obj.offsets))])
                else:
                    want = 0.5 * float(x @ (obj.P @ x)) + float(obj.q @ x)
                    assert np.array_equal(resp.g, obj.P @ x + obj.q)
                assert resp.f == want
                assert resp.f == prob.f_value(x)
            assert productive >= 100

    def test_no_value_for_saddle_and_vi(self):
        rng = np.random.default_rng(41)
        for prob in (saddle_problem(rng, 2, 2), vi_problem(rng, 3)):
            resp = prob.oracle(prob.x0)
            assert resp.productive and resp.f is None
            assert prob.f_value(prob.x0) is None


class TestSaddleOracle:
    def test_bilinear_gradients(self):
        M = np.array([[1.0, 2.0], [0.0, -1.0]])
        u, v = np.array([0.3, -0.7]), np.array([1.0, 0.5])
        g = BilinearSaddle(M).field(np.concatenate([u, v]))
        assert np.allclose(g[:2], M @ v)
        assert np.allclose(g[2:], -(M.T @ u))

    def test_zero_at_origin(self):
        M = np.random.default_rng(7).standard_normal((3, 2))
        assert not np.any(BilinearSaddle(M).field(np.zeros(5)))

    def test_saddle_inequality_sampled(self):
        # <g(x), x - x'> >= f(u, v') - f(u', v) over 10^4 sampled pairs
        rng = np.random.default_rng(8)
        M = rng.standard_normal((2, 2))
        U, V = rng.standard_normal((10_000, 2)), rng.standard_normal((10_000, 2))
        Up, Vp = rng.standard_normal((10_000, 2)), rng.standard_normal((10_000, 2))
        gu, gv = V @ M.T, -(U @ M)
        lhs = np.einsum("ij,ij->i", gu, U - Up) + np.einsum("ij,ij->i", gv, V - Vp)
        rhs = np.einsum("ij,ij->i", U @ M, Vp) - np.einsum("ij,ij->i", Up @ M, V)
        assert np.all(lhs >= rhs - 1e-10)


class TestVIOracle:
    def test_constant_field(self):
        q = np.array([1.0, -2.0])
        field = MonotoneAffineField(np.zeros((2, 2)), q)
        assert np.array_equal(field.field(np.array([5.0, 5.0])), q)

    def test_skew_symmetric_rotation_field(self):
        V = MonotoneAffineField(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))
        rng = np.random.default_rng(9)
        for _ in range(100):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            lhs = float((V.field(x) - V.field(y)) @ (x - y))
            assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_monotonicity_sampled(self):
        # <V(x) - V(y), x - y> >= 0 over 10^4 sampled pairs
        rng = np.random.default_rng(10)
        prob = vi_problem(rng, 3, skew=False)
        M = prob.objective.M
        D = rng.standard_normal((10_000, 3)) - rng.standard_normal((10_000, 3))
        vals = np.einsum("ij,ij->i", D @ M.T, D)
        assert np.all(vals >= -1e-10)

    def test_non_monotone_rejected_at_load(self):
        with pytest.raises(ProblemFormatError, match="monotone"):
            problem_from_dict({
                "kind": "vi-affine-monotone", "dim": 2, "x0": [0, 0], "R": 2.0,
                "set": {"type": "ball", "center": [0, 0], "radius": 1.0},
                "objective": {"M": [[-1.0, 0.0], [0.0, 1.0]], "q": [0, 0]},
            })


class TestProblemFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        for prob in (max_affine_ball(rng, 3), max_affine_box(rng, 2),
                     saddle_problem(rng), vi_problem(rng)):
            path = tmp_path / "p.json"
            save_problem(prob, path)
            back = load_problem(path)
            assert back.kind == prob.kind
            assert np.array_equal(back.x0, prob.x0)
            assert back.R == prob.R
            assert back.inner_radius == prob.inner_radius
            assert back.variation_bound == prob.variation_bound
            x = prob.x0 + 0.1
            assert np.array_equal(back.oracle(x).g, prob.oracle(x).g)

    def test_rejects_set_outside_initial_ball(self):
        with pytest.raises(ProblemFormatError, match="not contained"):
            problem_from_dict({
                "kind": "max-of-affine", "dim": 2, "x0": [0, 0], "R": 1.0,
                "set": {"type": "ball", "center": [1.0, 0.0], "radius": 0.5},
                "objective": {"rows": [{"a": [1, 0], "b": 0.0}]},
            })

    def test_rejects_oversized_inner_radius(self):
        with pytest.raises(ProblemFormatError, match="inner radius"):
            problem_from_dict({
                "kind": "max-of-affine", "dim": 2, "x0": [0, 0], "R": 1.0,
                "set": {"type": "ball", "center": [0, 0], "radius": 0.5},
                "objective": {"rows": [{"a": [1, 0], "b": 0.0}]},
                "r": 0.9,
            })

    def test_rejects_xstar_outside_feasible_set(self):
        with pytest.raises(ProblemFormatError, match="xstar"):
            problem_from_dict({
                "kind": "max-of-affine", "dim": 2, "x0": [0, 0], "R": 1.0,
                "set": {"type": "ball", "center": [0, 0], "radius": 0.5},
                "objective": {"rows": [{"a": [1, 0], "b": 0.0}]},
                "xstar": [0.9, 0.0],
            })

    def test_rejects_nonconvex_quadratic(self):
        with pytest.raises(ProblemFormatError, match="convex"):
            problem_from_dict({
                "kind": "quadratic-over-ball", "dim": 2, "x0": [0, 0], "R": 1.0,
                "set": {"type": "ball", "center": [0, 0], "radius": 0.5},
                "objective": {"P": [[-1.0, 0], [0, 1.0]], "q": [0, 0]},
            })

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem(path)

    def test_rejects_missing_keys(self):
        with pytest.raises(ProblemFormatError):
            problem_from_dict({"kind": "max-of-affine"})

    def test_numbers_round_trip_exactly(self, tmp_path):
        prob = max_affine_ball(np.random.default_rng(12), 2)
        path = tmp_path / "p.json"
        save_problem(prob, path)
        d = json.loads(path.read_text(encoding="utf-8"))
        assert problem_to_dict(prob) == d  # repr round-trip of IEEE doubles

    def test_quadratic_problem_loads_and_runs(self):
        prob = problem_from_dict({
            "kind": "quadratic-over-ball", "dim": 2, "x0": [0, 0], "R": 1.0,
            "set": {"type": "ball", "center": [0, 0], "radius": 0.5},
            "objective": {"P": [[2.0, 0], [0, 1.0]], "q": [0.1, -0.2]},
        })
        resp = prob.oracle(np.array([0.1, 0.1]))
        assert resp.productive
        assert np.allclose(resp.g, np.array([2 * 0.1 + 0.1, 0.1 - 0.2]))
        assert prob.f_value(np.zeros(2)) == 0.0
