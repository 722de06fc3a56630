import numpy as np
import pytest

from mathieuspec import MathieuPotential, assemble, eig, make_solver

POTS = {
    "free": MathieuPotential(0, 0),
    "sa": MathieuPotential(1 + 0.5j, 1 - 0.5j),
    "equal": MathieuPotential(1, 1),
    "asym": MathieuPotential(1, 2),
    "negprod": MathieuPotential(1, -1),
    "gasymov": MathieuPotential(0, 1),
}


@pytest.fixture(scope="session")
def solvers():
    """Shared tracked solvers; building them dominates suite runtime."""
    cache = {}

    def get(name, n_max=9, t_points=96):
        key = (name, n_max, t_points)
        if key not in cache:
            cache[key] = make_solver(POTS[name], n_max, t_points)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def dn_direct():
    """|d_n(t)| from a direct eigensolve at t, labeled by the solver's curve.

    A BandSolver reads t < 0 off the solution at |t| by reflection; this
    solves the operator at t itself, so a +-t comparison still tests it.
    """
    def get(solver, n, t):
        sol = eig(assemble(solver.pot, t, solver.M))
        i = sol.nearest(solver.curves.value(n, t))
        assert not sol.is_clustered(i)
        return abs(np.vdot(sol.left_vectors[:, i], sol.vectors[:, i]))

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
