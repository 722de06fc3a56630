import functools
import math

import numpy as np
import pytest

from mathieuspec import (BlochFunction, MathieuPotential, assemble,
                         bloch_function, eig, make_solver)

POTS = {
    "free": MathieuPotential(0, 0),
    "sa": MathieuPotential(1 + 0.5j, 1 - 0.5j),
    "equal": MathieuPotential(1, 1),
    "asym": MathieuPotential(1, 2),
    "negprod": MathieuPotential(1, -1),
    "gasymov": MathieuPotential(0, 1),
    # one potential of each benchmark class
    "bench-sa": MathieuPotential(0.5025886253061008 - 0.16168359416589173j,
                                 0.5025886253061008 + 0.16168359416589173j),
    "bench-eq": MathieuPotential(0.5630686690634059 - 0.188249341635913j,
                                 -0.43571869411525155 + 0.4032782665922996j),
    "bench-un": MathieuPotential(0.8376456348484289 + 0.14651318151296733j,
                                 -2.9177297344498583 - 0.7129705044539645j),
    "bench-os": MathieuPotential(0j, 0.1984015861053919 - 0.8056621698921916j),
    # the mirror one-sided case, b = 0
    "left": MathieuPotential(1, 0),
    # two more two-sided stress cases for the batched inverse iteration
    # (BandSolver.bands): |ab| = 3.2 above the simple bound, and a = -b
    "large-ab": MathieuPotential(2, 1.6j),
    "opposite": MathieuPotential(1.5, -1.5),
}


@pytest.fixture(scope="session")
def pots():
    """The named potentials above."""
    return POTS


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


@functools.lru_cache(maxsize=256)
def _dense_solution(pot, M, t):
    return eig(assemble(pot, t, M))


def _dense_band(solver, t, n):
    t = float(t)
    if t == -math.pi:
        t = math.pi
    elif t < 0:
        primal, partner = _dense_band(solver, -t, n)
        return (BlochFunction(n, t, partner.ks, np.conj(partner.coeffs[::-1]),
                              primal.lam, partner.residual),
                BlochFunction(n, t, primal.ks, np.conj(primal.coeffs[::-1]),
                              partner.lam, primal.residual))
    return bloch_function(solver.pot, t, n, M=solver.M,
                          lambda_ref=solver.curves.value(n, t),
                          solution=_dense_solution(solver.pot, solver.M, t))


@pytest.fixture(scope="session")
def dense_band():
    """The dense reference for ``BandSolver.bands``: band n's (primal,
    partner) at t along the solver's curves, or MultipleEigenvalueError.

    One ``eig`` per |t|, memoized per (potential, M, |t|), then
    ``bloch_function`` with the curve value; -pi is read as pi, and t < 0
    is reflected from -t (primal P conj(partner), partner P conj(primal),
    P the reversal k -> -k, with the residuals swapped).
    """
    return _dense_band


def _one_sided_reference(pot, M, t, n, dps=30):
    """Band n's (lam, unit right, unit left) vectors of the ab = 0
    truncation on k = -M..M at t, from the two-term recurrences carried
    in ``dps``-digit arithmetic (mpmath) with exact pi and the gaps as
    plain differences d_n - d_k.

    -pi is read as pi, and t < 0 reads band n off the diagonal entry -n
    (lambda_n(-t) = lambda_n(t)), as ``BandSolver.bands`` does.  Both
    vectors are checked against the matrix in the same arithmetic.
    """
    import mpmath
    if t == -math.pi:
        t = math.pi
    i = -n if t < 0 else n
    ks = range(-M, M + 1)
    with mpmath.workdps(dps):
        a, b = mpmath.mpc(pot.a), mpmath.mpc(pot.b)
        d = [(2 * mpmath.pi * k + mpmath.mpf(t)) ** 2 for k in ks]
        c = i + M

        def chain(coupling, step):
            v = [mpmath.mpc(0)] * len(d)
            v[c] = mpmath.mpc(1)
            k = c + step
            while 0 <= k < len(d):
                v[k] = coupling * v[k - step] / (d[c] - d[k])
                k += step
            norm = mpmath.sqrt(sum(abs(z) ** 2 for z in v))
            return [z / norm for z in v]

        def product(v, sup, sub):
            return [d[k] * v[k] + (sup * v[k + 1] if k + 1 < len(d) else 0)
                    + (sub * v[k - 1] if k > 0 else 0)
                    for k in range(len(d))]

        if a == 0:
            x, y = chain(b, 1), chain(mpmath.conj(b), -1)
        else:
            x, y = chain(a, -1), chain(mpmath.conj(a), 1)
        for v, (sup, sub) in ((x, (a, b)), (y, (mpmath.conj(b),
                                                mpmath.conj(a)))):
            r = product(v, sup, sub)
            assert max(abs(r[k] - d[c] * v[k]) for k in range(len(d))) \
                < mpmath.mpf(10) ** (5 - dps) * (1 + d[-1])
        return (complex(d[c]), np.array([complex(z) for z in x]),
                np.array([complex(z) for z in y]))


@pytest.fixture(scope="session")
def one_sided_reference():
    """The 30-digit reference for one-sided (ab = 0) pairs:
    ``(pot, M, t, n) -> (lam, right, left)``, see ``_one_sided_reference``."""
    return _one_sided_reference


@pytest.fixture(scope="session")
def dn_direct():
    """|d_n(t)| from a direct eigensolve at t, labeled by the solver's curve.

    ``BandSolver.bands`` reads t < 0 off the pair at |t| by reflection;
    this solves the operator at t itself, so a +-t comparison still tests
    it.
    """
    def get(solver, n, t):
        primal, partner = bloch_function(solver.pot, t, n, M=solver.M,
                                         lambda_ref=solver.curves.value(n, t))
        return abs(np.vdot(partner.coeffs, primal.coeffs))

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
