import cmath
import collections
import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from mathieuspec import (BandSolver, MathieuPotential, MultipleEigenvalueError,
                         assemble, make_solver)
from mathieuspec.floquet import CLUSTER_RTOL

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


#: The dense reference's singular-value cutoff for geometric multiplicity.
GM_RTOL = 1e-8

#: A band's eigenvalue, unit coefficient vector and residual certificate.
Pair = collections.namedtuple("Pair", "lam coeffs residual")


@functools.lru_cache(maxsize=256)
def _dense_solution(pot, M, t):
    """(op, lambdas, right, left, res, lres) of the truncation at t from
    LAPACK's dense QR with left and right vectors, or None when a residual
    misses the certificate 1e-8 max(scale, 1)."""
    op = assemble(pot, t, M)
    w, vl, vr = sla.eig(op.to_dense(), left=True, right=True)
    res = np.linalg.norm(op.apply(vr) - vr * w, axis=0)
    lres = np.linalg.norm(op.apply(vl, adjoint=True) - vl * np.conj(w),
                          axis=0)
    if np.any(res > 1e-8 * max(op.scale, 1.0)):
        return None
    return op, w, vr, vl, res, lres


def _dense_cluster(w, i):
    """Single-linkage component of w[i] at CLUSTER_RTOL, sorted."""
    mag = np.abs(w)
    members = [i]
    for j in members:
        near = np.abs(w - w[j]) < CLUSTER_RTOL * (1.0 + np.minimum(mag,
                                                                   mag[j]))
        members += [k for k in np.flatnonzero(near).tolist()
                    if k not in members]
    return sorted(members)


def _dense_deficient(op, w, cl):
    """Geometric multiplicity of the cluster below its size?  Bidiagonal
    (exactly one zero coupling): always; Hermitian: never; otherwise by
    the singular values of A - mean I."""
    if (op.super == 0) != (op.sub == 0):
        return True
    if op.is_hermitian:
        return False
    sv = np.linalg.svd(op.to_dense() - w[cl].mean() * np.eye(op.size),
                       compute_uv=False)
    return int(np.sum(sv < GM_RTOL * max(op.scale, 1.0))) < len(cl)


def _parity_reference(pot, lam_ref, at_pi, M):
    """The dense parity split of the two-periodic pair at t = 0 or pi.

    Builds the gauge-symmetrized matrix and the parity basis densely and
    projects, basis^T A basis; at pi it truncates to k = -M..M-1 so the
    reflection k -> -1-k maps the window onto itself.  Returns
    [(lam, psi, psi_adj) even, (lam, psi, psi_adj) odd] with unit vectors
    on that window, each block's eigenvalue nearest ``lam_ref``.
    """
    s = cmath.sqrt(pot.a / pot.b)
    g = cmath.sqrt(pot.ab)
    if at_pi:
        ks, t = np.arange(-M, M), math.pi
    else:
        ks, t = np.arange(-M, M + 1), 0.0
    nk = len(ks)
    offset = int(ks[0])
    sym = np.diag((2.0 * math.pi * ks + t) ** 2).astype(complex)
    sym += np.diag(np.full(nk - 1, g), 1) + np.diag(np.full(nk - 1, g), -1)
    cols_even, cols_odd = [], []
    seen = set()
    for k in ks:
        if k in seen:
            continue
        r = -1 - k if at_pi else -k
        seen.update((int(k), int(r)))
        if r == k:
            e = np.zeros(nk)
            e[k - offset] = 1.0
            cols_even.append(e)
        else:
            hi, lo = max(k, r), min(k, r)
            for sign, cols in ((1.0, cols_even), (-1.0, cols_odd)):
                e = np.zeros(nk)
                e[hi - offset] = 1.0 / math.sqrt(2.0)
                e[lo - offset] = sign / math.sqrt(2.0)
                cols.append(e)
    scaling = np.exp(-np.log(s) * ks)
    adj_scaling = np.exp(np.log(np.conj(s)) * ks)
    out = []
    for cols in (cols_even, cols_odd):
        basis = np.array(cols).T
        w, vr = sla.eig(basis.T @ sym @ basis)
        j = int(np.argmin(np.abs(w - lam_ref)))
        vfull = basis @ vr[:, j]
        psi = scaling * vfull
        psi_adj = adj_scaling * np.conj(vfull)
        out.append((complex(w[j]), psi / np.linalg.norm(psi),
                    psi_adj / np.linalg.norm(psi_adj)))
    return out


def _direct_band(pot, M, t, n, ref):
    """Band n's (primal, partner) from a dense solve at t itself, or
    MultipleEigenvalueError.

    The eigenvalue nearest ``ref``; a clustered one is refused when the
    cluster is deficient, and otherwise, at t = 0 or +-pi with ab != 0,
    is band n's member of the parity split (n >= 0 the even block), and
    refused anywhere else.
    """
    if t == -math.pi:
        t = math.pi
    sol = _dense_solution(pot, M, t)
    if sol is None:
        raise MultipleEigenvalueError(f"uncertified solve at t={t!r}")
    op, w, vr, vl, res, lres = sol
    i = int(np.argmin(np.abs(w - ref)))
    cl = _dense_cluster(w, i)
    if len(cl) > 1:
        if _dense_deficient(op, w, cl):
            raise MultipleEigenvalueError(f"deficient cluster at t={t!r}")
        if (t == 0.0 or abs(t) == math.pi) and pot.ab != 0:
            lam, psi, psi_adj = _parity_reference(
                pot, ref, t != 0.0, M)[0 if n >= 0 else 1]
            x, y = (np.concatenate([v, np.zeros(op.size - len(v))])
                    for v in (psi, psi_adj))
            return (Pair(lam, x, float(np.linalg.norm(
                        op.apply(x[:, None])[:, 0] - lam * x))),
                    Pair(np.conj(lam), y, float(np.linalg.norm(
                        op.apply(y[:, None], adjoint=True)[:, 0]
                        - np.conj(lam) * y))))
        raise MultipleEigenvalueError(f"clustered eigenvalue at t={t!r}")
    return (Pair(complex(w[i]), vr[:, i], float(res[i])),
            Pair(complex(np.conj(w[i])), vl[:, i], float(lres[i])))


def _dense_band(solver, t, n):
    t = float(t)
    if t < 0 and t != -math.pi:
        primal, partner = _dense_band(solver, -t, n)
        return (Pair(primal.lam, np.conj(partner.coeffs[::-1]),
                     partner.residual),
                Pair(partner.lam, np.conj(primal.coeffs[::-1]),
                     primal.residual))
    return _direct_band(solver.pot, solver.M, t, n,
                        solver.curves.value(n, t))


@pytest.fixture(scope="session")
def dense_band():
    """The dense reference for ``BandSolver.bands``: band n's (primal,
    partner) ``Pair``s at t along the solver's curves, or
    MultipleEigenvalueError.

    One dense solve per |t|, memoized per (potential, M, |t|), labelled by
    the curve value (``_direct_band``); -pi is read as pi, and t < 0 is
    reflected from -t (primal P conj(partner), partner P conj(primal), P
    the reversal k -> -k, with the residuals swapped).
    """
    return _dense_band


@pytest.fixture(scope="session")
def direct_band():
    """Band n's (primal, partner) at t from a dense solve at t itself,
    labelled by the solver's curve value; MultipleEigenvalueError where
    the dense reference refuses (see ``_direct_band``)."""
    def get(solver, t, n):
        return _direct_band(solver.pot, solver.M, float(t), n,
                            solver.curves.value(n, t))

    return get


@pytest.fixture(scope="session")
def m_truncation_bands():
    """``solver.bands(ts, labels)`` with the batch iterating on the whole
    M-truncation rather than the tracking's window: the reference for the
    window route."""
    def get(solver, ts, labels):
        curves = dataclasses.replace(solver.curves, window_M=solver.M)
        return BandSolver(solver.pot, curves).bands(ts, labels)

    return get


@pytest.fixture(scope="session")
def dense_lambdas():
    """Every eigenvalue of the M-truncation at t, by dense QR."""
    return lambda pot, M, t: sla.eigvals(assemble(pot, t, M).to_dense())


@pytest.fixture(scope="session")
def dense_cluster():
    """The dense reference's cluster rule, see ``_dense_cluster``."""
    return _dense_cluster


@pytest.fixture(scope="session")
def parity_reference():
    """The dense parity split at t = 0 or pi, see ``_parity_reference``."""
    return _parity_reference


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


@functools.lru_cache(maxsize=64)
def _exact_lambdas(pot, M, t):
    """Every eigenvalue of the M-truncation at t, its entries as assembled
    in doubles, from a 50-digit QR (mpmath)."""
    import mpmath
    op = assemble(pot, t, M)
    with mpmath.workdps(50):
        a = mpmath.matrix(op.size, op.size)
        for i, d in enumerate(op.diag):
            a[i, i] = mpmath.mpf(float(d))
            if i + 1 < op.size:
                a[i, i + 1] = mpmath.mpc(op.super)
                a[i + 1, i] = mpmath.mpc(op.sub)
        w = mpmath.eig(a, left=False, right=False)
        return np.array([complex(z) for z in w])


@pytest.fixture(scope="session")
def exact_lambdas():
    """The 50-digit eigenvalues of the truncation: ``(pot, M, t) ->
    lambdas``, memoized, see ``_exact_lambdas``."""
    return _exact_lambdas


@pytest.fixture(scope="session")
def dn_direct():
    """|d_n(t)| from a direct eigensolve at t, labeled by the solver's curve.

    ``BandSolver.bands`` reads t < 0 off the pair at |t| by reflection;
    this solves the operator at t itself, so a +-t comparison still tests
    it.
    """
    def get(solver, n, t):
        primal, partner = _direct_band(solver.pot, solver.M, float(t), n,
                                       solver.curves.value(n, t))
        return abs(np.vdot(partner.coeffs, primal.coeffs))

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
