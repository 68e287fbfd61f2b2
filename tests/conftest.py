from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest

from subeq import solver
from subeq.newton import _NewtonLevel


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_sym(rng, n, size=None, scale=3.0):
    """Symmetric matrices with entries of order `scale`."""
    shape = (n, n) if size is None else (size, n, n)
    G = rng.uniform(-scale, scale, shape)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def perron_only(solve, *args, flat=False, start=None):
    """``solve(*args)`` with the Newton attempt declined, so that the
    solver's own pass runs the Perron sweeps on every level.  The sweeps
    start from ``start`` (None: the boundary minimum) on a first level of
    at least 33 nodes per axis; ``flat`` drops the cascade ladder, leaving
    the problem as the one level."""
    def declined(newton_level, *a, **kw):
        return start, 0, [], "declined"

    with ExitStack() as stack:
        stack.enter_context(patch.object(_NewtonLevel, "run", declined))
        if flat:
            stack.enter_context(
                patch.object(solver, "_cascade_ladder", lambda P: []))
        return solve(*args)
