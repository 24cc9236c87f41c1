from itertools import count

import numpy as np
import pytest

from baryreduce import barycenter, transport
from baryreduce.core import Solution, make_distribution, pool_batch
from baryreduce.transport import TransportModel, solve_pooled


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_distribution(rng, T, d, rational=False):
    """A random distribution; rational weights use small-denominator fractions."""
    atoms = rng.normal(size=(T, d))
    if rational:
        num = rng.integers(1, 9, size=T)
        w = num / num.sum()
    else:
        w = rng.random(T)
        w = w / w.sum()
    return make_distribution(atoms, w)


def weights_with_zeros(r, T):
    """Random weights in which some atoms are massless: exactly zero or
    lighter than ``ZERO_MASS``; at least one atom carries mass."""
    w = r.random(T) + 0.05
    kind = r.integers(0, 3, size=T)
    w[kind == 1] = 0.0
    w[kind == 2] = 1e-17
    if not np.any(w > 1e-15):
        w[r.integers(T)] = 1.0
    return w / w.sum()


def input_costs(mus, nu, p):
    """W_p(mu_i, nu)**p of every distribution in ``mus``, in list order,
    from one :func:`solve_pooled` call on the pooled list."""
    return solve_pooled(pool_batch(mus), nu, p)[1]


def solution_of(plans, b):
    """The pooled :class:`Solution` of per-input ``plans``, stacked in order."""
    return Solution(np.concatenate(plans), b)


def use_model(monkeypatch, model_class):
    """Make the barycenter solver and ``solve_pooled`` build ``model_class``,
    a :class:`TransportModel` subclass, for their transport steps."""
    monkeypatch.setattr(barycenter, "TransportModel", model_class)
    monkeypatch.setattr(transport, "TransportModel", model_class)


@pytest.fixture
def rising_transport_costs(monkeypatch):
    """Make the barycenter solver's transport step report its true costs
    times 1, 2, 3, ... on successive outer iterations, keeping the real
    plans, so the objective rises even where the fitted support lowers it."""
    calls = count(1)

    class Rising(TransportModel):
        def solve(self, C):
            flow, costs = super().solve(C)
            return flow, costs * next(calls)

    use_model(monkeypatch, Rising)
