"""Metamorphic relations of short runs under power-of-two rescalings.

Every step of the scheme is invariant under a rescaling of each oracle
answer: the weights ``a_k`` and ``b_k`` absorb it.  So scaling the field
(the problem's answers on the interior of Q) by ``2^j`` leaves the iterates
bit for bit as they are, scales the weight of each productive step by
``2^-j`` and keeps every gap.  Scaling the domain by ``2^j`` (start point,
radii, set and solution) together with the objective data, so that the
field at the scaled point is ``2^-j`` times the field at the original one,
scales the iterates, the gaps and rho by ``2^j``.  Powers of two keep every
product exact, so each relation holds with equality, not within a
tolerance.  Runs are kept short: a run whose metric has collapsed meets
round-off clamps that do not scale.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from subell import certificates as certs
from subell.solver import VARIANTS, StrategyConfig, run

from test_solver import FAMILIES

SEEDS = (0, 1, 2)
POWERS = (1, 7, -9, 20)
STEPS = 100

# the power of the domain scale by which each objective array is scaled, so
# that the field at the scaled point scales by its inverse
DOMAIN_POWER = {"A": -1, "offsets": 0, "P": -2, "q": -1, "M": -2}


def _scaled(obj, power):
    """The dataclass ``obj`` with each array field ``name`` multiplied by
    ``power(name)``."""
    return type(obj)(*(getattr(obj, f.name) * power(f.name) for f in fields(obj)))


def _scale_field(prob, j):
    return replace(prob, objective=_scaled(prob.objective, lambda _: 2.0 ** j))


def _scale_domain(prob, j):
    s = 2.0 ** j
    return replace(prob, x0=s * prob.x0, R=s * prob.R, inner_radius=s * prob.inner_radius,
                   xstar=None if prob.xstar is None else s * prob.xstar,
                   feasible=_scaled(prob.feasible, lambda _: s),
                   objective=_scaled(prob.objective,
                                     lambda name: 2.0 ** (DOMAIN_POWER[name] * j)))


def _measures(prob, variant):
    """What the relations compare of one run: the iterates, which steps were
    productive, the step weights, the sliding gaps, and ``(weights, gap,
    rho)`` of the preliminary certificate (variants with step weights) and
    of the min-width certificate (``ellipsoid``) after the last step."""
    res = run(prob, StrategyConfig.for_variant(variant, prob.dim), STEPS)
    history = res.records
    out = {"x": history.array("x"), "productive": history.array("productive"),
           "a": history.array("a"), "sliding": [row.sliding_gap for row in res.rows]}
    checkpoints = []
    if np.any(out["a"] > 0.0):
        checkpoints.append(certs.Checkpoint.at(history, len(history), certs.PRELIMINARY))
    if variant == "ellipsoid":
        checkpoints.append(certs.Checkpoint.at(history, res.state.k, certs.MIN_WIDTH,
                                               res.state))
    for cp, cert, gap, _, _ in certs.certify_run(prob, history, checkpoints):
        out[cp.pathway] = (cert.weights, gap, cp.rho)
    return out


def _cases(family, variant, scale):
    """``(seed, j, base, scaled)`` measures over the seeds and powers."""
    for seed in SEEDS:
        prob = FAMILIES[family](np.random.default_rng(seed))
        base = _measures(prob, variant)
        for j in POWERS:
            yield seed, j, base, _measures(scale(prob, j), variant)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_field_scaling_keeps_iterates_and_gaps(family, variant):
    for seed, j, base, got in _cases(family, variant, _scale_field):
        case = (family, variant, seed, j)
        # a productive step's weight takes up the field's scale; a separator
        # step answers the same and keeps its weight
        per_step = np.where(base["productive"], 2.0 ** -j, 1.0)
        assert np.array_equal(got["x"], base["x"]), case
        assert np.array_equal(got["productive"], base["productive"]), case
        assert np.array_equal(got["a"], per_step * base["a"]), case
        assert got["sliding"] == base["sliding"], case
        for pathway in (certs.PRELIMINARY, certs.MIN_WIDTH):
            assert (pathway in got) == (pathway in base), case
            if pathway in base:
                weights, gap, rho = got[pathway]
                assert np.array_equal(weights, per_step * base[pathway][0]), (case, pathway)
                assert (gap, rho) == base[pathway][1:], (case, pathway)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_domain_scaling_scales_iterates_and_gaps(family, variant):
    for seed, j, base, got in _cases(family, variant, _scale_domain):
        case = (family, variant, seed, j)
        s = 2.0 ** j
        assert np.array_equal(got["x"], s * base["x"]), case
        assert got["sliding"] == [None if gap is None else s * gap
                                  for gap in base["sliding"]], case
        for pathway in (certs.PRELIMINARY, certs.MIN_WIDTH):
            assert (pathway in got) == (pathway in base), case
            if pathway in base:
                _, gap, rho = base[pathway]
                assert got[pathway][1:] == (s * gap, None if rho is None else s * rho), \
                    (case, pathway)
