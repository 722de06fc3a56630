import cmath
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieuspec import (BandSolver, MathieuPotential,
                         MultipleEigenvalueError, TrackingAmbiguityError,
                         ValidationError, assemble,
                         default_grid, detect_singularities, dn_profile,
                         endpoint_spectrum, free_lambda,
                         fundamental_solutions, make_solver, track_curves)
from mathieuspec import floquet as flq
from mathieuspec.floquet import CLUSTER_RTOL, default_m, stable_m

TWO_PI = 2.0 * math.pi
PI = math.pi

#: The singular-value cutoff of the dense geometric-multiplicity count
#: that the endpoint verdicts are checked against.
GM_RTOL = 1e-8


class TestAssemble:
    def test_free_diagonal(self):
        op = assemble(MathieuPotential(0, 0), 0.5, 4)
        # the central three entries match the small reference truncation
        mid = op.M
        want = [(-TWO_PI + 0.5) ** 2, 0.25, (TWO_PI + 0.5) ** 2]
        got = [op.diag[mid - 1], op.diag[mid], op.diag[mid + 1]]
        assert got == pytest.approx(want, abs=0)
        assert op.super == 0 and op.sub == 0

    def test_coupling_placement(self):
        op = assemble(MathieuPotential(3, 5), 0.1, 5)
        a = op.to_dense()
        n = op.size
        assert np.all(a[np.arange(n - 1), np.arange(1, n)] == 3)
        assert np.all(a[np.arange(1, n), np.arange(n - 1)] == 5)

    def test_row_relation(self):
        # row k: (2 pi k + t)^2 c_k + a c_{k+1} + b c_{k-1} = (A c)_k
        pot = MathieuPotential(1.5 - 1j, 0.25j)
        op = assemble(pot, -0.7, 6)
        a = op.to_dense()
        rng = np.random.default_rng(5)
        c = rng.normal(size=op.size) + 1j * rng.normal(size=op.size)
        out = a @ c
        for k in (-3, 0, 4):
            i = op.index(k)
            want = (TWO_PI * k - 0.7) ** 2 * c[i]
            want += pot.a * c[i + 1] + pot.b * c[i - 1]
            assert out[i] == pytest.approx(want, rel=1e-14)

    def test_endpoint_spectrum_swap_symmetry(self):
        # at t = pi the diagonal is symmetric under k <-> -k-1, so the
        # spectrum must be invariant under swapping the couplings
        w1 = np.sort(sla.eigvals(assemble(MathieuPotential(2, 5), PI, 24)
                                 .to_dense()).real)
        w2 = np.sort(sla.eigvals(assemble(MathieuPotential(5, 2), PI, 24)
                                 .to_dense()).real)
        sel = np.abs(w1) < (TWO_PI * 12) ** 2
        assert np.allclose(w1[sel], w2[sel], atol=1e-9 * (1 + np.abs(w1[sel])))

    def test_small_m_rejected(self):
        with pytest.raises(ValidationError):
            assemble(MathieuPotential(0, 0), 0.0, 3)


class TestEig:
    """The endpoint eigensolve: ``endpoint_spectrum`` at t = 0 and pi."""

    def test_free_exact(self):
        pot = MathieuPotential(0, 0)
        for t in (0.0, PI):
            op = assemble(pot, t, 8)
            sol = endpoint_spectrum(pot, t, 8)
            assert np.max(sol.residuals) == 0.0
            assert sorted(sol.lambdas.real) == pytest.approx(sorted(op.diag),
                                                             abs=0)

    def test_interior_t_rejected(self):
        with pytest.raises(ValidationError):
            endpoint_spectrum(MathieuPotential(1, 2), 0.5, 8)

    def test_triangular_doubles_deficient(self):
        sol = endpoint_spectrum(MathieuPotential(0, 1), 0.0, 24)
        for n in range(1, 7):
            lam = (TWO_PI * n) ** 2
            idx = np.argsort(np.abs(sol.lambdas - lam))[:2]
            assert abs(sol.lambdas[idx[0]] - lam) <= 1e-10 * (1 + lam)
            assert abs(sol.lambdas[idx[1]] - lam) <= 1e-10 * (1 + lam)
            assert _flags(sol)[idx].all()

    def test_free_doubles_not_deficient(self):
        sol = endpoint_spectrum(MathieuPotential(0, 0), 0.0, 12)
        assert len(_clusters(sol)) == 12
        assert not _flags(sol).any()

    def test_left_vectors_solve_adjoint(self):
        # the dense matrix certifies both blocks' vectors independently of
        # the residuals endpoint_spectrum computes itself
        for pot in (MathieuPotential(1, 2),
                    MathieuPotential(1 + 0.5j, 1 - 0.5j)):
            for t in (0.0, PI):
                op = assemble(pot, t, 12)
                sol = endpoint_spectrum(pot, t, 12)
                a = op.to_dense()
                for n in (3, -4):
                    i = sol.nearest(free_lambda(n, t))
                    lam = sol.lambdas[i]
                    v = sol.vectors[:, i]
                    w = sol.left_vectors[:, i]
                    res = np.linalg.norm(a @ v - lam * v)
                    lres = np.linalg.norm(a.conj().T @ w - np.conj(lam) * w)
                    assert res <= 1e-8 * op.scale
                    assert lres <= 1e-8 * op.scale
                    assert abs(res - sol.residuals[i]) <= 1e-12 * op.scale
                    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_deficiency_matches_svd(self):
        # a Hermitian matrix is never defective: no self-adjoint cluster is
        # flagged, and the dense singular values of A - mean I confirm a
        # full eigenspace within the cluster's own spread, below half the
        # window (the pi blocks leave out the edge row k = M)
        clusters = 0
        for pot in (MathieuPotential(0.5, 0.5),
                    MathieuPotential(0.4 + 0.3j, 0.4 - 0.3j),
                    MathieuPotential(1 + 0.5j, 1 - 0.5j),
                    MathieuPotential(2, 2)):
            for t in (0.0, PI):
                for m in (12, 24, 40):
                    op = assemble(pot, t, m)
                    assert op.is_hermitian
                    sol = endpoint_spectrum(pot, t, m)
                    assert not _flags(sol).any()
                    a = op.to_dense()
                    for cl in _clusters(sol):
                        mean = sol.lambdas[cl].mean()
                        if abs(mean) >= (PI * m) ** 2:
                            continue
                        clusters += 1
                        sv = np.linalg.svd(a - mean * np.eye(len(a)),
                                           compute_uv=False)
                        spread = np.max(np.abs(sol.lambdas[cl] - mean))
                        tol = spread + GM_RTOL * max(op.scale, 1.0)
                        assert np.sum(sv <= tol) >= len(cl)
        assert clusters > 100

    def test_unit_norm(self):
        for t in (0.0, PI):
            sol = endpoint_spectrum(MathieuPotential(1 - 0.3j, 0.4), t, 10)
            for vecs in (sol.vectors, sol.left_vectors):
                assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0,
                                   atol=1e-12)

    def test_multiplicity_counts_blocks(self):
        # a synthetic spectrum: a triple meeting both blocks has a
        # two-dimensional eigenspace, so it is deficient, and so is a
        # double inside one block, unless the truncation is Hermitian
        lam = np.array([5.0, 5.0 + 1e-12, 5.0 + 2e-12, 9.0, 9.0 + 1e-12,
                        20.0], dtype=complex)
        block = np.array([0, 0, 1, 1, 1, 0])
        z = np.zeros((3, len(lam)), dtype=complex)

        def spectrum(hermitian):
            return flq.EndpointSpectrum(0.0, lam, block, z, z,
                                        np.zeros(len(lam)),
                                        np.zeros(len(lam)), hermitian)

        sol = spectrum(False)
        assert [sol.multiplicity(i) for i in range(6)] == [2, 2, 2, 1, 1, 1]
        assert _flags(sol).tolist() == [True] * 5 + [False]
        assert sol.label(1, 5.0) is None and sol.label(-1, 9.0) is None
        assert sol.label(0, 20.0) == 5
        herm = spectrum(True)
        assert [herm.multiplicity(i) for i in range(6)] == [3, 3, 3, 2, 2, 1]
        assert not _flags(herm).any()
        # the triple spans both blocks: split by sign; the double lies in
        # the odd block only, and either sign keeps its own member
        assert herm.label(1, 5.0) == 0 and herm.label(-1, 5.0) == 2
        assert herm.label(1, 9.0) == 3 and herm.label(-1, 9.0 + 1e-12) == 4

    def test_matches_discriminant_root(self):
        # lowest eigenvalue of (1,1) at t=0 vs the ODE-based root of F = 2
        pot = MathieuPotential(1, 1)
        sol = endpoint_spectrum(pot, 0.0, 20)
        lam0 = sol.lambdas[np.argmin(sol.lambdas.real)]
        assert abs(fundamental_solutions(pot, lam0).f - 2.0) <= 1e-8


def _clusters(sol):
    """The clusters of more than one eigenvalue, each listed once, read
    one eigenvalue at a time through ``cluster``."""
    found = {}
    for i in range(len(sol.lambdas)):
        cl = sol.cluster(i).tolist()
        found.setdefault(cl[0], cl)
    return [cl for cl in found.values() if len(cl) > 1]


def _flags(sol):
    """``is_deficient`` for every eigenvalue."""
    return np.array([sol.is_deficient(i) for i in range(len(sol.lambdas))],
                    dtype=bool)


def _union_find_clusters(lams, rtol):
    """Reference single-linkage: union-find over every pair."""
    n = len(lams)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ii in range(n):
        for jj in range(ii + 1, n):
            tol = rtol * (1.0 + min(abs(lams[ii]), abs(lams[jj])))
            if abs(lams[ii] - lams[jj]) < tol:
                ri, rj = find(ii), find(jj)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in groups.values()]


def _cluster_indices(lams, rtol):
    """Reference: an eager all-pairs grouping.  Each group is sorted and
    listed by its smallest index."""
    lams = np.asarray(lams)
    n = len(lams)
    mag = np.abs(lams)
    close = (np.abs(lams[:, None] - lams[None, :])
             < rtol * (1.0 + np.minimum(mag[:, None], mag[None, :])))
    # min-label propagation: at the fixed point every member carries the
    # smallest index of its component
    labels = np.arange(n)
    while True:
        new = np.minimum(labels, np.where(close, labels[None, :], n).min(
            axis=1, initial=n))
        if np.array_equal(new, labels):
            break
        labels = new
    groups = {}
    for i, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


def _by_index(groups, n):
    """Per index, the group that holds it."""
    of = [None] * n
    for g in groups:
        for i in g:
            of[i] = g
    return of


def _components(cluster, lams):
    """``cluster`` asked for every index."""
    return [cluster(lams, i) for i in range(len(lams))]


@st.composite
def _near_duplicate_spectra(draw):
    """Eigenvalues over six decades, some copied within a few CLUSTER_RTOL
    of another; a copy of a copy makes a chain."""
    n = draw(st.integers(1, 30))
    mags = draw(st.lists(st.floats(-2.0, 4.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, TWO_PI), min_size=n, max_size=n))
    lams = 10.0 ** np.array(mags) * np.exp(1j * np.array(phases))
    copies = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.floats(-2.0, 2.0), st.floats(0.0, TWO_PI))
    for dst, src, kick, phase in draw(st.lists(copies, max_size=n)):
        lams[dst] = lams[src] * (1.0 + CLUSTER_RTOL * kick
                                 * cmath.exp(1j * phase))
    return lams


class TestClusterIndices:
    """The single-linkage clusters of the dense reference
    (``dense_cluster``, which decides the clustered pairs the batch and
    the endpoint blocks are compared against) against two independent
    groupings."""

    def test_random_near_duplicates(self, dense_cluster):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            lams = 10.0 ** rng.uniform(-2, 4, n) * np.exp(
                1j * rng.uniform(0, TWO_PI, n))
            k = int(rng.integers(0, n + 1))
            dst, src = rng.choice(n, k), rng.choice(n, k)
            kick = rng.uniform(-2, 2, k) * np.exp(
                1j * rng.uniform(0, TWO_PI, k))
            lams[dst] = lams[src] * (1.0 + CLUSTER_RTOL * kick)
            want = _union_find_clusters(lams, CLUSTER_RTOL)
            assert _cluster_indices(lams, CLUSTER_RTOL) == want
            assert _components(dense_cluster, lams) == _by_index(want, n)

    @given(_near_duplicate_spectra())
    @settings(max_examples=200, deadline=None)
    def test_component_matches_eager_grouping(self, dense_cluster, lams):
        want = _by_index(_cluster_indices(lams, CLUSTER_RTOL), len(lams))
        for i in range(len(lams)):
            assert dense_cluster(lams, i) == want[i]

    def test_transitive_chains(self, dense_cluster):
        # a-b and b-c are linked but |a - c| >= tol: one cluster
        for base in (1e-2, 1.0, 37.5, 1e4):
            tol = CLUSTER_RTOL * (1.0 + base)
            step = 0.9 * tol
            lams = np.array([base + 3.0 * step, base, base + 5.0 * tol,
                             base + step, base + 2.0 * step], dtype=complex)
            assert abs(lams[1] - lams[0]) >= tol
            got = _components(dense_cluster, lams)
            assert got == _by_index(_union_find_clusters(lams, CLUSTER_RTOL),
                                    len(lams))
            chain = [0, 1, 3, 4]
            assert got == [chain, chain, [2], chain, chain]

    def test_magnitude_range(self, dense_cluster):
        mags = np.logspace(-2, 4, 25)
        lams = np.concatenate([mags, mags * (1.0 + 0.5 * CLUSTER_RTOL),
                               mags * (1.0 + 3.0 * CLUSTER_RTOL) + 1j * mags])
        got = _components(dense_cluster, lams)
        assert got == _by_index(_union_find_clusters(lams, CLUSTER_RTOL),
                                len(lams))
        assert len({tuple(g) for g in got if len(g) > 1}) == len(mags)

    def test_empty_and_single(self, dense_cluster):
        assert _components(dense_cluster, np.array([], dtype=complex)) == []
        assert dense_cluster(np.array([2.0 + 0j]), 0) == [0]


def _svd_verdicts(pot, t, m):
    """Reference: per eigenvalue of a dense solve at t, (cluster size,
    deficient) from the single-linkage cluster and the singular values of
    A - mean I, with the bidiagonal and Hermitian rules (the verdict the
    package took before the endpoints had their parity blocks)."""
    op = assemble(pot, t, m)
    dense = op.to_dense()
    w = sla.eigvals(dense)
    mag = np.abs(w)
    close = (np.abs(w[:, None] - w[None, :])
             < CLUSTER_RTOL * (1.0 + np.minimum(mag[:, None], mag[None, :])))
    out = []
    for i in range(len(w)):
        cl = np.flatnonzero(close[i])
        if len(cl) < 2:
            out.append((1, False))
        elif (op.super == 0) != (op.sub == 0):
            out.append((len(cl), True))
        elif op.is_hermitian:
            out.append((len(cl), False))
        else:
            sv = np.linalg.svd(dense - w[cl].mean() * np.eye(len(w)),
                               compute_uv=False)
            out.append((len(cl), bool(np.sum(sv < GM_RTOL * max(
                op.scale, 1.0)) < len(cl))))
    return w, out


@pytest.fixture
def svd_count(monkeypatch):
    """Counts the dense SVDs made while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestOnDemandDeficiency:
    def test_matches_eager_loop(self):
        # the block-membership verdict against the dense SVD count, and
        # the cluster sizes, below half the window (the edge rows differ:
        # the pi blocks leave out k = M)
        kinds = set()
        for pot in (MathieuPotential(1 + 0.5j, 1 - 0.5j),   # Hermitian
                    MathieuPotential(1, 2), MathieuPotential(1, -1),
                    MathieuPotential(0, 1), MathieuPotential(1.5, 0)):
            for t in (0.0, PI):
                for m in (12, 24):
                    sol = endpoint_spectrum(pot, t, m)
                    w, want = _svd_verdicts(pot, t, m)
                    for i in np.flatnonzero(np.abs(sol.lambdas)
                                            < (PI * m) ** 2):
                        j = int(np.argmin(np.abs(w - sol.lambdas[i])))
                        assert (len(sol.cluster(i)),
                                sol.is_deficient(int(i))) == want[j]
                    if _clusters(sol):
                        kinds.add(bool(_flags(sol).any()))
        assert kinds == {True, False}

    def test_tracking_makes_no_svd(self, svd_count):
        track_curves(MathieuPotential(0.5 + 0.2j, 0.3 - 0.6j),
                     n_range=range(-3, 4))
        assert svd_count == []

    def test_endpoint_pairs_make_no_svd(self, svd_count):
        solver = make_solver(MathieuPotential(1, 2), 2)
        sol = solver.solution(0.0)
        i = sol.nearest(solver.curves.value(2, 0.0))
        assert len(sol.cluster(i)) > 1 and not sol.is_deficient(i)
        # (2, -2) share one cluster at t = 0; it spans both parity blocks,
        # so each band resolves as its member of the two-periodic pair
        got = solver.bands([0.0], [2, -2])
        assert got.ok.all() and got.endpoint.all()
        assert got.endpoint_solves == 1
        # (2, -3) share one at t = pi, and -pi, read as pi, is the same
        # node of the same call
        got = solver.bands([PI, -PI, PI], [2, -3])
        assert np.array_equal(got.t, [PI, PI, PI])
        assert got.ok.all() and got.endpoint_solves == 1
        assert svd_count == []


REFLECTION_POTS = {
    "eq": MathieuPotential(0.8 + 0.6j, 0.6 - 0.8j),
    "un": MathieuPotential(0.5 + 0.2j, 0.3 - 0.6j),
    "sa": MathieuPotential(1 + 0.5j, 1 - 0.5j),
    "os": MathieuPotential(0, 1),
}


def _band_or_none(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except MultipleEigenvalueError:
        return None


class TestReflection:
    @pytest.mark.parametrize("name", sorted(REFLECTION_POTS))
    def test_matches_direct_solve(self, direct_band, dense_lambdas, name):
        pot = REFLECTION_POTS[name]
        eps = np.finfo(float).eps
        for m in (12, 32):
            solver = BandSolver(pot, track_curves(
                pot, t_grid=default_grid(16), n_range=range(-3, 4), M=m))
            for t in (0.37, 1.9, 1e-9, PI - 1e-9):
                op = assemble(pot, -t, m)
                scale = op.scale
                lams = dense_lambdas(pot, m, t)
                got = solver.bands([-t], range(-3, 4))
                assert got.t[0] == -t
                for r, n in enumerate(range(-3, 4)):
                    direct = _band_or_none(direct_band, solver, -t, n)
                    # a band the direct solve refuses is refused here too
                    assert (not got.ok[0, r]) == (direct is None)
                    if direct is None:
                        continue
                    x, y, lam = (got.right[0, :, r], got.left[0, :, r],
                                 got.lam[0, r])
                    assert abs(lam - direct[0].lam) <= 1e-12 * scale
                    d_ref = abs(np.vdot(y, x))
                    d_dir = abs(np.vdot(direct[1].coeffs, direct[0].coeffs))
                    # a near-double (the unequal pair at pi - 1e-9 is 7e-5
                    # apart) moves |d| by rounding / gap in any solve
                    gap = np.partition(np.abs(lams - lam), 1)[1]
                    assert abs(d_ref - d_dir) <= max(1e-10, eps * scale / gap)
                    # the carried certificates hold for the reflected vectors
                    res = np.linalg.norm(op.apply(x[:, None])[:, 0] - lam * x)
                    lres = np.linalg.norm(
                        op.apply(y[:, None], adjoint=True)[:, 0]
                        - np.conj(lam) * y)
                    assert abs(res - got.residual[0, r]) <= eps * scale
                    assert abs(lres - got.left_residual[0, r]) <= eps * scale
                    cert = 1e-8 * max(scale, 1.0)
                    assert res <= cert and lres <= cert

    @pytest.mark.parametrize("name", ["asym", "large-ab", "gasymov", "left"])
    def test_direct_pair_matches_reflection(self, pots, name):
        # direct_pair solves -t itself; bands reflects it from t
        pot = pots[name]
        solver = BandSolver(pot, track_curves(
            pot, t_grid=default_grid(16), n_range=range(-3, 4), M=16))
        for t in (-0.83, 0.83, -2.5):
            got = solver.bands([t], [2, -1])
            for r, n in enumerate((2, -1)):
                k = n if t > 0 else -n    # where band n's vector leads
                lam, x, y, _, _, certified = flq.direct_pair(
                    pot, solver.M, t, k, solver.curves.value(n, t))
                assert certified and got.ok[0, r]
                scale = assemble(pot, t, solver.M).scale
                assert abs(lam - got.lam[0, r]) <= 1e-12 * scale
                d = abs(np.vdot(got.left[0, :, r], got.right[0, :, r]))
                assert abs(abs(np.vdot(y, x)) - d) <= 1e-10

    def test_solver_reflects_negative_t(self, monkeypatch):
        # one bands([t, -t]) call resolves the node |t| once, on the batch
        # (two-sided) or the closed form (one-sided), with no endpoint
        # solve, and reads the -t pairs off the t pairs by reflection,
        # entry for entry
        solves, batches, closed = [], [], []
        real_end, real_batch = flq.endpoint_spectrum, flq._inverse_iteration
        real_closed = flq._one_sided

        def counted_end(pot, t, M):
            solves.append(t)
            return real_end(pot, t, M)

        def counted_batch(pot, M, ts, *rest):
            batches.append(ts)
            return real_batch(pot, M, ts, *rest)

        def counted_closed(pot, M, ts, *rest):
            closed.append(ts)
            return real_closed(pot, M, ts, *rest)

        monkeypatch.setattr(flq, "endpoint_spectrum", counted_end)
        monkeypatch.setattr(flq, "_inverse_iteration", counted_batch)
        monkeypatch.setattr(flq, "_one_sided", counted_closed)
        for pot, route in ((MathieuPotential(1, 2), batches),
                           (MathieuPotential(0, 1), closed)):
            solver = make_solver(pot, 2)
            t = float(solver.curves.t_samples[40])
            solves.clear()
            batches.clear()
            closed.clear()
            got = solver.bands([t, -t], [2, -1])
            assert len(batches) + len(closed) == len(route) == 1
            assert solves == [] and got.endpoint_solves == 0
            assert all(np.all(ts == t) for ts in route)
            assert np.array_equal(got.t, [t, -t])
            assert got.ok.all()
            assert np.array_equal(got.lam[1], got.lam[0])
            assert np.array_equal(got.right[1], np.conj(got.left[0, ::-1]))
            assert np.array_equal(got.left[1], np.conj(got.right[0, ::-1]))
            assert np.array_equal(got.residual[1], got.left_residual[0])
            assert np.array_equal(got.left_residual[1], got.residual[0])
            # nothing of the call is kept on the solver
            assert set(vars(solver)) == {"pot", "curves", "M"}


EDGE_TS = [0.0, PI, -PI, 1e-15, -1e-15, PI - 1e-15, -(PI - 1e-15)]


class TestBandEdgeInputs:
    @given(st.sampled_from(["sa", "eq", "un", "os"]),
           st.one_of(st.sampled_from(EDGE_TS),
                     st.floats(-PI, PI, exclude_min=True)),
           st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_certified_pair_or_refusal(self, solvers, direct_band,
                                       dense_lambdas, klass, t, n):
        solver = solvers(f"bench-{klass}", n_max=3)
        got = solver.bands([t, -t], [n])
        if not got.ok[0, 0]:
            return
        assert got.t[0] == (PI if t == -PI else t)
        x, y, lam = got.right[0, :, 0], got.left[0, :, 0], got.lam[0, 0]
        op = assemble(solver.pot, got.t[0], solver.M)
        cert = 1e-8 * op.scale
        res = np.linalg.norm(op.apply(x[:, None])[:, 0] - lam * x)
        lres = np.linalg.norm(op.apply(y[:, None], adjoint=True)[:, 0]
                              - np.conj(lam) * y)
        assert res <= cert and lres <= cert
        if t == 0.0 or abs(t) == PI:
            return
        # the other sign: read through the reflection, or solved directly
        direct = _band_or_none(direct_band, solver, -t, n)
        assert (not got.ok[1, 0]) == (direct is None)
        if direct is None:
            return
        assert abs(got.lam[1, 0] - direct[0].lam) <= 1e-12 * op.scale
        d_ref = abs(np.vdot(got.left[1, :, 0], got.right[1, :, 0]))
        d_dir = abs(np.vdot(direct[1].coeffs, direct[0].coeffs))
        lams = dense_lambdas(solver.pot, solver.M, abs(t))
        gap = np.partition(np.abs(lams - lam), 1)[1]
        assert abs(d_ref - d_dir) <= max(
            1e-10, np.finfo(float).eps * op.scale / gap)

    @pytest.mark.parametrize("t, resolves", [
        (4.0, False), (PI + 1e-9, False), (-PI, True), (PI + 5e-13, True)])
    def test_quasimomentum_past_pi(self, solvers, t, resolves):
        # |t| up to pi + PI_SLACK, the tracking grid's slack, is read as
        # pi; beyond it the input is rejected, not refused as not simple
        solver = solvers("asym")
        if not resolves:
            with pytest.raises(ValidationError):
                solver.bands([t], [1, 2])
            return
        got = solver.bands([t], [1, 2])
        assert got.t[0] == PI and got.ok.all()
        want = solver.bands([PI], [1, 2])
        assert np.array_equal(got.lam, want.lam)


def test_eigen_solutions_read_only_in_floquet():
    # every other module gets a band's vectors from BandSolver.bands, no
    # module branches on a band-status string, and the cluster question is
    # asked per eigenvalue (cluster, is_deficient)
    vectors = re.compile(r"\.(left_)?vectors\b")
    status = re.compile(r"[\"'](simple|clustered|deficient)[\"']")
    eager = re.compile(r"\.clusters\b|cluster_of\(|is_clustered\(|"
                       r"deficiency_flags")
    sources = {p.name: p.read_text() for p in
               Path(flq.__file__).parent.glob("*.py")}
    assert {name for name, text in sources.items()
            if vectors.search(text)} == {"floquet.py"}
    assert not [name for name, text in sources.items()
                if status.search(text)]
    assert not [name for name, text in sources.items()
                if eager.search(text)]


def test_one_labelled_band_entry():
    # no module resolves a labelled pair but through BandSolver.bands, and
    # the solver keeps no solutions
    sources = {p.name: p.read_text() for p in
               Path(flq.__file__).parent.glob("*.py")}
    assert not [name for name, text in sources.items() if ".band(" in text]
    assert not hasattr(BandSolver, "band")
    assert "_cache" not in inspect.getsource(BandSolver)


class TestAdjoint:
    def test_self_adjoint_identical(self):
        pot = MathieuPotential(1 + 0.5j, 1 - 0.5j)
        a1 = assemble(pot, 0.9, 10).to_dense()
        a2 = assemble(pot.adjoint(), 0.9, 10).to_dense()
        assert np.array_equal(a1, a2)

    def test_conjugate_eigenvalues(self):
        pot = MathieuPotential(1, 2)
        s1 = sla.eigvals(assemble(pot, 0.6, 16).to_dense())
        s2 = sla.eigvals(assemble(pot.adjoint(), 0.6, 16).to_dense())
        for lam in s1:
            assert np.min(np.abs(s2 - np.conj(lam))) <= 1e-9 * (1 + abs(lam))

    def test_gasymov_adjoint_triangular(self):
        s2 = endpoint_spectrum(MathieuPotential(0, 1).adjoint(), 0.0, 16)
        lam = (TWO_PI * 2) ** 2
        idx = np.argsort(np.abs(s2.lambdas - lam))[:2]
        assert np.all(np.abs(s2.lambdas[idx] - lam) <= 1e-9 * (1 + lam))
        assert _flags(s2)[idx].all()


class TestTracking:
    def test_free_exact_curves(self):
        curves = track_curves(MathieuPotential(0, 0), n_range=range(-3, 4))
        for n in curves.n_values:
            want = (TWO_PI * n + curves.t_samples) ** 2
            assert np.max(np.abs(curves.curves[n] - want)) <= 1e-10

    def test_mid_zone_offset(self, solvers):
        curves = solvers("asym").curves
        lam = curves.value(5, PI / 2)
        assert abs(lam - (TWO_PI * 5 + PI / 2) ** 2) <= 1.0

    def test_even_in_t(self, solvers):
        # lambda_5(-t) = lambda_5(t): compare stored samples against a
        # direct solve at the negated quasimomentum
        solver = solvers("asym")
        curves = solver.curves
        for t in (0.31, 1.7, 2.9):
            j = np.argmin(np.abs(curves.t_samples - t))
            tt = curves.t_samples[j]
            w = sla.eigvals(assemble(curves.pot, -tt, curves.M).to_dense())
            lam = w[np.argmin(np.abs(w - curves.curves[5][j]))]
            assert abs(lam - curves.curves[5][j]) <= 1e-9 * (1 + abs(lam))

    def test_pairing_bookkeeping(self, solvers):
        pairs = solvers("asym").curves.pair_labels
        zero_pairs = {tuple(p["pair"]) for p in pairs["zero"]}
        pi_pairs = {tuple(p["pair"]) for p in pairs["pi"]}
        assert (3, -3) in zero_pairs
        assert (3, -4) in pi_pairs
        for rec in pairs["zero"]:
            n = rec["pair"][0]
            assert abs(rec["lambda"][0] - (TWO_PI * n) ** 2) <= 2.0

    def test_disk_localization(self, solvers):
        # both pair members stay within |lambda - (2 pi n + t)^2| <= n
        curves = solvers("asym", n_max=9).curves
        sel = curves.t_samples <= 1.0 / (15.0 * PI)
        for n in (8, 9):
            for sign in (1, -1):
                lam = curves.curves[sign * n][sel]
                ref = (TWO_PI * n + curves.t_samples[sel]) ** 2
                assert np.max(np.abs(lam - ref)) <= n

    def test_self_adjoint_real(self, solvers):
        curves = solvers("sa").curves
        for n in curves.n_values:
            assert np.max(np.abs(curves.curves[n].imag)) <= 1e-8

    def test_phase_rotation_invariance(self):
        pot = MathieuPotential(1.1, 0.4 - 0.8j)
        rot = pot.rotated(0.643)
        for t in (0.0, 1.2):
            w1 = sla.eigvals(assemble(pot, t, 20).to_dense())
            w2 = sla.eigvals(assemble(rot, t, 20).to_dense())
            scale = assemble(pot, t, 20).scale
            drift = max(np.min(np.abs(w2 - lam)) for lam in w1)
            assert drift <= 1e-9 * scale

    def test_truncation_stability(self):
        m = stable_m(MathieuPotential(1, 2), 5)[0]
        w1 = sla.eigvals(assemble(MathieuPotential(1, 2), 1.0, m).to_dense())
        w2 = sla.eigvals(assemble(MathieuPotential(1, 2), 1.0, m + 10).to_dense())
        sel = np.abs(w1) <= (TWO_PI * 5) ** 2
        for lam in w1[sel]:
            assert np.min(np.abs(w2 - lam)) <= 1e-9 * (1 + abs(lam))

    @pytest.mark.xfail(strict=True, raises=TrackingAmbiguityError,
                       reason="ROADMAP item 6: the drift check solves the "
                              "unbalanced matrix, |b/a| = 5.3e5 here")
    def test_skewed_couplings_stabilize(self):
        # F and every eigenvalue depend on ab alone, so the skewed pair
        # should pass where its balanced pair (sqrt(ab), sqrt(ab)) does,
        # at M = 32; stable_m raises at M_CAP instead
        pot = MathieuPotential(8.860414957955822e-05 - 0.001098379475076661j,
                               328.75015871204556 - 482.2938153941325j)
        g = cmath.sqrt(pot.ab)
        assert stable_m(MathieuPotential(g, g), 8)[0] == 32
        assert stable_m(pot, 8)[0] == 32

    def test_default_grid_shape(self):
        g = default_grid(96)
        assert g[0] == 0.0 and g[-1] == PI
        assert np.all(np.diff(g) > 0)
        assert g[1] < 1e-6 and PI - g[-2] < 1e-6

    def test_curve_continuity(self, solvers):
        # consecutive samples move no faster than the local velocity bound
        curves = solvers("asym").curves
        ts = curves.t_samples
        for n in curves.n_values:
            lam = curves.curves[n]
            speed_cap = 2.0 * (TWO_PI * abs(n) + PI) + 60.0
            steps = np.abs(np.diff(lam)) / np.maximum(np.diff(ts), 1e-300)
            assert np.max(steps) <= speed_cap


EPS = np.finfo(float).eps

#: Strongly coupled potentials for the tracking window, beside the
#: fixture's (1, 2) and self-adjoint ones.
STRONG = [(40, 40), (100, 100j), (10, -7j)]


@pytest.fixture
def eigensolve_sizes(monkeypatch):
    """Matrix sizes of the eigenvalue solves made while installed."""
    sizes = []
    for name in ("eigvals", "eigh"):
        def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
            sizes.append(len(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes


class TestTrackingWindow:
    def test_scale_matches_assemble(self):
        g = default_grid(96)
        ts = np.concatenate([g, -g, [PI, -PI]])
        for pot in (MathieuPotential(1, 2), MathieuPotential(0, 0),
                    MathieuPotential(0.5 + 0.5j, 0.5 - 0.5j),
                    MathieuPotential(0, 0.3 - 0.7j),
                    MathieuPotential(0.123456789 + 0.9j, -2.3 + 1e-3j)):
            for m in (4, 32, 36, 513):
                want = np.array([assemble(pot, t, m).scale for t in ts])
                assert np.array_equal(flq._scale(pot, ts, m), want)

    @pytest.mark.parametrize("case", ["asym", "sa"] + STRONG)
    def test_samples_on_full_spectrum(self, solvers, case):
        # away from the endpoint doubles every curve sample is an
        # eigenvalue of the M-truncation to 10 eps scale(M)
        if isinstance(case, str):
            curves = solvers(case).curves
        else:
            curves = track_curves(MathieuPotential(*case), default_grid(32),
                                  range(-6, 7))
        assert curves.window_M < curves.M
        checked = 0
        for j, t in enumerate(curves.t_samples):
            full = sla.eigvals(assemble(curves.pot, t, curves.M).to_dense())
            scale = flq._scale(curves.pot, t, curves.M)
            for n in curves.n_values:
                lam = curves.curves[n][j]
                i = np.argmin(np.abs(full - lam))
                if np.min(np.abs(np.delete(full, i) - full[i])) \
                        <= 1e-6 * scale:
                    continue
                assert abs(full[i] - lam) <= 10 * EPS * scale
                checked += 1
        assert checked >= 0.5 * len(curves.t_samples) * len(curves.n_values)

    @pytest.mark.parametrize("name", ["bench-sa", "bench-eq", "bench-un",
                                      "bench-os"])
    @pytest.mark.parametrize("n_max", [5, 6])
    def test_full_window_same_tracking(self, monkeypatch, pots, name, n_max):
        # tracking on the whole truncation gives the narrowed run's grid,
        # labels and ambiguities, with the curves to 2e-11 relative
        pot, labels = pots[name], range(-n_max, n_max + 1)
        narrow = track_curves(pot, default_grid(96), labels)

        def whole_window(*args, _real=flq.stable_m):
            M = _real(*args)[0]
            return M, M, 0

        monkeypatch.setattr(flq, "stable_m", whole_window)
        wide = track_curves(pot, default_grid(96), labels)
        assert wide.window_M == wide.M == narrow.M
        assert np.array_equal(wide.t_samples, narrow.t_samples)
        assert wide.ambiguities == narrow.ambiguities
        for side in ("zero", "pi"):
            assert ([p["pair"] for p in wide.pair_labels[side]]
                    == [p["pair"] for p in narrow.pair_labels[side]])
        for n in labels:
            want = wide.curves[n]
            assert np.all(np.abs(narrow.curves[n] - want)
                          <= 2e-11 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("amps, n_max, window", [
        ((1, 2), 6, 16), ((1 + 0.5j, 1 - 0.5j), 6, 16), ((0, 1), 6, 16),
        # the window check fails at 14 here and doubles the window once
        ((1000, 1000j), 4, 28)])
    def test_window_solves_only(self, eigensolve_sizes, amps, n_max, window):
        # outside the window check's one solve on M, no eigensolve is
        # larger than the window; every solve is counted
        pot = MathieuPotential(*amps)
        M = stable_m(pot, n_max)[0]
        eigensolve_sizes.clear()
        curves = track_curves(pot, default_grid(32),
                              range(-n_max, n_max + 1), M=M)
        assert curves.window_M == window
        assert len(eigensolve_sizes) == curves.eigensolves
        wide = [s for s in eigensolve_sizes if s > 2 * window + 1]
        if pot.ab == 0:
            assert eigensolve_sizes == []
        else:
            assert wide == [2 * M + 1]
            assert eigensolve_sizes.count(2 * window + 1) \
                >= len(curves.t_samples)

    def test_shares_stable_m_solve(self, eigensolve_sizes):
        # the window check reuses the drift check's solve on M, and the
        # tracking calls stable_m once: beyond it, window solves only
        pot = MathieuPotential(1, 2)
        M, K, solves = stable_m(pot, 6)
        own = list(eigensolve_sizes)
        assert own == [2 * M + 1, 2 * M + 21] + [2 * K + 1] * solves
        eigensolve_sizes.clear()
        curves = track_curves(pot, default_grid(32), range(-6, 7))
        assert (curves.M, curves.window_M) == (M, K)
        assert eigensolve_sizes[:len(own)] == own
        assert eigensolve_sizes[len(own):] \
            == [2 * K + 1] * (curves.eigensolves - solves)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_m_below_labels_rejected(self, m):
        with pytest.raises(ValidationError):
            track_curves(MathieuPotential(1, 2), default_grid(32),
                         range(-6, 7), M=m)

    def test_assign_needs_an_eigenvalue_per_label(self):
        with pytest.raises(ValidationError):
            flq._assign(np.zeros(3, dtype=complex), np.ones(2, dtype=complex))


def _conflicting_cases(rng, count, lattice=False):
    """(pred, lams) pairs, tens of labels against tens of eigenvalues, in
    which some labels share their nearest eigenvalue.  On the integer
    lattice many distances tie; off it the optimum is unique with
    probability one."""
    cases = []
    while len(cases) < count:
        n = int(rng.integers(10, 40))
        m = n + int(rng.integers(0, 30))
        if lattice:
            lams = (rng.integers(-4, 5, m) + 1j * rng.integers(-4, 5, m))
            pred = rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)
        else:
            lams = rng.normal(size=m) + 1j * rng.normal(size=m)
            pred = (lams[rng.integers(0, m, n)]
                    + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        nearest = np.argmin(np.abs(pred[:, None] - lams[None, :]), axis=1)
        if len(set(nearest.tolist())) < n:
            cases.append((pred.astype(complex), lams.astype(complex)))
    return cases


class TestAssign:
    """``_assign`` against scipy's ``linear_sum_assignment`` where the
    nearest-eigenvalue choice is not one-to-one."""

    def test_unique_optimum_same_indices(self):
        from scipy.optimize import linear_sum_assignment
        for pred, lams in _conflicting_cases(np.random.default_rng(1), 1000):
            cost = np.abs(pred[:, None] - lams[None, :])
            idx = flq._assign(pred, lams)[0]
            assert np.array_equal(idx, linear_sum_assignment(cost)[1])

    def test_tied_costs_same_total(self):
        from scipy.optimize import linear_sum_assignment
        for pred, lams in _conflicting_cases(np.random.default_rng(2), 1000,
                                             lattice=True):
            cost = np.abs(pred[:, None] - lams[None, :])
            r = np.arange(len(pred))
            idx = flq._assign(pred, lams)[0]
            assert len(set(idx.tolist())) == len(pred)
            want = cost[r, linear_sum_assignment(cost)[1]].sum()
            assert cost[r, idx].sum() == pytest.approx(want, rel=1e-13,
                                                       abs=1e-13)


def _band(solver, t, n):
    """Band n's (ok, right vector, left vector) at t from ``bands``."""
    got = solver.bands([t], [n])
    return got.ok[0, 0], got.right[0, :, 0], got.left[0, :, 0]


def _coeff(solver, c, k):
    """The coefficient at Fourier index k of a vector on the solver's
    window."""
    return c[k + solver.M] if abs(k) <= solver.M else 0.0


def _mirror(n, t):
    """The partner index of k = n: -n for |t| <= pi/2 (periodic family),
    -n-1 beyond (antiperiodic)."""
    return -n if abs(t) <= PI / 2 else -n - 1


class TestBlochFunction:
    """Bloch functions by band label through ``BandSolver.bands``."""

    def test_free_concentrated(self, solvers):
        solver = solvers("free", n_max=5)
        ok, c, c_adj = _band(solver, 0.5, 3)
        assert ok
        assert abs(_coeff(solver, c, 3)) == pytest.approx(1.0)
        assert _coeff(solver, c, -3) == 0.0
        assert np.linalg.norm(np.delete(c, 3 + solver.M)) == 0.0
        assert abs(_coeff(solver, c_adj, 3)) == pytest.approx(1.0)

    def test_normalization_split(self, solvers):
        solver = solvers("equal")
        ok, c, _ = _band(solver, 0.01, 4)
        assert ok
        u, v = _coeff(solver, c, 4), _coeff(solver, c, _mirror(4, 0.01))
        tail = np.linalg.norm(np.delete(c, [4 + solver.M, -4 + solver.M]))
        assert abs(u) ** 2 + abs(v) ** 2 + tail ** 2 == pytest.approx(
            1.0, abs=1e-10)
        assert abs(abs(u) ** 2 + abs(v) ** 2 - 1.0) <= 0.05

    def test_dominant_component_asym(self, solvers):
        # (1,2) at t=0 resolves through the parity blocks; one component
        # carries nearly all the mass
        solver = solvers("asym")
        ok, c, _ = _band(solver, 0.0, 6)
        assert ok
        dominant = max(abs(_coeff(solver, c, 6)), abs(_coeff(solver, c, -6)))
        assert dominant ** 2 >= 0.9

    def test_tail_falls_with_band(self, solvers):
        solver = solvers("asym")
        t = 0.02
        for n in (4, 6, 8):
            ok, c, _ = _band(solver, t, n)
            assert ok
            tail = np.linalg.norm(np.delete(c, [n + solver.M,
                                                _mirror(n, t) + solver.M]))
            assert tail <= 5.0 / n

    def test_jordan_refused(self, solvers):
        ok, c, c_adj = _band(solvers("gasymov"), 0.0, 2)
        assert not ok
        assert not c.any() and not c_adj.any()

    def test_evaluate_periodicity(self, solvers):
        solver = solvers("equal")
        t = 0.7
        ok, c, _ = _band(solver, t, 2)
        assert ok
        x = np.array([0.25, 1.25])
        vals = np.exp(1j * np.outer(x, TWO_PI * solver.ks + t)) @ c
        # Bloch property: Psi(x + 1) = e^{it} Psi(x)
        assert vals[1] == pytest.approx(vals[0] * np.exp(1j * t), rel=1e-10)


def _assert_clustered(pot, t, n, M=None):
    """The band is clustered at t: its pair needs the parity split."""
    M = default_m(abs(n) + 2) if M is None else M
    sol = endpoint_spectrum(pot, t, M)
    assert len(sol.cluster(sol.nearest(free_lambda(n, t)))) > 1
    return sol


def _pair(sol, n, t):
    """Band n's (lam, right, left, res, lres) off an endpoint solve, with
    the free value as reference, or None."""
    i = sol.label(n, free_lambda(n, t))
    if i is None:
        return None
    return (sol.lambdas[i], sol.vectors[:, i], sol.left_vectors[:, i],
            sol.residuals[i], sol.left_residuals[i])


class TestTwoPeriodicPair:
    def test_agrees_with_plain_path_when_resolvable(self):
        # at n = 2 the splitting is still above double precision, so the
        # plain dense eigensolve is an independent oracle for the blocks
        pot = MathieuPotential(1, 2)
        w, vl, vr = sla.eig(assemble(pot, 0.0, 24).to_dense(), left=True,
                            right=True)
        lam = (TWO_PI * 2) ** 2
        idx = np.argsort(np.abs(w - lam))[:2]
        d_plain = sorted(abs(np.vdot(vl[:, i], vr[:, i])) for i in idx)
        sol = _assert_clustered(pot, 0.0, 2, M=24)
        pair = [_pair(sol, n, 0.0) for n in (2, -2)]
        d_parity = sorted(abs(np.vdot(y, x)) for (_, x, y, _, _) in pair)
        assert d_parity == pytest.approx(d_plain, rel=1e-6)

    def test_residual_certified(self):
        pot = MathieuPotential(1, 2)
        for n in (5, -5):
            sol = _assert_clustered(pot, 0.0, n)
            lam, _, _, res, lres = _pair(sol, n, 0.0)
            assert res <= 1e-7 * (1 + abs(lam))
            assert lres <= 1e-7 * (1 + abs(lam))

    def test_antiperiodic_indexing(self):
        # n = 2, not 1: the n = 1 pair of (1, -1) at pi splits by 3e-4,
        # too wide to cluster
        pot = MathieuPotential(1, -1)
        for n in (2, -3):
            sol = _assert_clustered(pot, PI, n)
            lam, x, _, _, _ = _pair(sol, n, PI)
            M = (len(x) - 1) // 2
            assert abs(lam - (2 * TWO_PI + PI) ** 2) <= 0.1
            assert abs(x[n + M]) ** 2 + abs(x[_mirror(n, PI) + M]) ** 2 \
                >= 0.9

    def test_needs_nonzero_product(self):
        pot = MathieuPotential(0, 1)
        sol = _assert_clustered(pot, 0.0, 2)
        assert _pair(sol, 2, 0.0) is None


PARITY_POTS = [(1, 2), (1, -1), (1, 1), (1 + 0.5j, 1 - 0.5j),
               (0.5 + 0.2j, 0.3 - 0.6j), (1.5, -1.5), (0.8 + 0.6j, 0.6 - 0.8j)]


class TestParityPair:
    @pytest.mark.parametrize("ab", PARITY_POTS)
    def test_matches_dense_reference(self, parity_reference, ab):
        # every endpoint pair of bands against the dense parity split: a
        # clustered pair against the even (+) block for n >= 0 and the odd
        # (-) one for n < 0, a simple one against the member with its
        # eigenvalue
        pot = MathieuPotential(*ab)
        labels = range(-8, 9)
        for M in (24, 32):
            solver = BandSolver(pot, track_curves(pot, default_grid(16),
                                                  labels, M=M))
            got = solver.bands([0.0, PI], labels)
            assert got.ok.all() and got.endpoint.all()
            for j, t in enumerate((0.0, PI)):
                op = assemble(pot, t, M)
                sol = solver.solution(t)
                for r, n in enumerate(labels):
                    refs = parity_reference(pot, solver.curves.value(n, t),
                                            t == PI, M)
                    lam = got.lam[j, r]
                    if len(sol.cluster(sol.nearest(lam))) > 1:
                        b = 0 if n >= 0 else 1
                    else:
                        b = int(np.argmin([abs(ref[0] - lam) for ref in refs]))
                    ref_lam, psi, psi_adj = refs[b]
                    assert lam == pytest.approx(ref_lam, rel=1e-12)
                    d_ref = abs(np.vdot(psi_adj, psi))
                    d_got = abs(np.vdot(got.left[j, :, r], got.right[j, :, r]))
                    assert d_got == pytest.approx(d_ref, rel=1e-12)
                    assert got.right.shape[1] == op.size
                    scale = 1e-9 * max(op.scale, 1.0)
                    assert got.residual[j, r] <= scale
                    assert got.left_residual[j, r] <= scale

    def test_gauge_coupling_sign(self):
        # for (-1, -1), a/s = -1 while sqrt(ab) = +1: the symmetrized
        # coupling must be a/s, or the vectors miss the operator by ~2|g|
        pot = MathieuPotential(-1, -1)
        for t, ns in ((0.0, (3, -3)), (PI, (2, -3))):
            op = assemble(pot, t, 24)
            for n in ns:
                sol = _assert_clustered(pot, t, n, M=24)
                _, _, _, res, lres = _pair(sol, n, t)
                assert res <= 1e-9 * op.scale and lres <= 1e-9 * op.scale

    def test_minus_pi_reads_as_pi(self, solvers):
        solver = solvers("asym")
        pot, n = solver.pot, 2
        lam_ref = solver.curves.value(n, PI)
        sol = solver.solution(PI)
        assert len(sol.cluster(sol.nearest(lam_ref))) > 1
        got = solver.bands([PI, -PI], [n])
        assert np.array_equal(got.t, [PI, PI])
        assert got.ok.all() and got.endpoint.all()
        for part in (got.lam, got.right, got.left, got.residual,
                     got.left_residual):
            assert np.array_equal(part[1], part[0])
        # the -pi solve is the pi solve
        fresh = endpoint_spectrum(pot, -PI, solver.M)
        assert fresh.t == PI
        assert np.array_equal(fresh.vectors[:, fresh.label(n, lam_ref)],
                              got.right[0, :, 0])

    def test_endpoint_fixes_family(self, solvers):
        # the pair at pi is antiperiodic (band 2 on k = 2 and -3), at 0
        # periodic (band 3 on k = 3 and -3)
        solver = solvers("asym")
        for t, n in ((PI, 2), (0.0, 3)):
            _assert_clustered(solver.pot, t, n, M=solver.M)
            ok, c, _ = _band(solver, t, n)
            assert ok
            mass = (abs(_coeff(solver, c, n)) ** 2
                    + abs(_coeff(solver, c, _mirror(n, t))) ** 2)
            assert mass >= 0.9

    def test_profile_resolves_endpoints_through_it(self, solvers,
                                                   monkeypatch):
        # a profile's endpoint nodes take one endpoint solve each
        solver = solvers("asym")
        calls = []
        real = flq.endpoint_spectrum

        def counting(pot, t, M):
            calls.append((t, M))
            return real(pot, t, M)

        monkeypatch.setattr(flq, "endpoint_spectrum", counting)
        prof = dn_profile(solver.pot, 4, [0.0, PI], solver=solver)
        assert calls == [(0.0, solver.M), (PI, solver.M)]
        assert not prof.excluded
        assert [t for t, _ in prof.by_method("eigenvector")] == [0.0, PI]


# --------------------------------------------------------------------------
# Batched labelled pairs (BandSolver.bands) against the dense reference
# --------------------------------------------------------------------------

def _phase_aligned_gap(x, want):
    """||x e^{i phi} - want|| with phi aligning x to want."""
    ph = np.vdot(x, want)
    return np.linalg.norm(x * (ph / abs(ph)) - want)


class TestBatchedBands:
    @pytest.mark.parametrize("name", ["bench-sa", "bench-eq", "bench-un",
                                      "bench-os", "large-ab", "opposite"])
    def test_matches_dense_band_at_expand_nodes(self, pots, dense_band,
                                                one_sided_reference, name):
        from mathieuspec.expansion import _passes, make_plan
        pot = pots[name]
        plan = make_plan(pot, 4)
        solver = make_solver(pot, plan.n_max + 1)
        nodes = np.concatenate([p[0] for p in _passes(plan)])
        labels = list(range(-4, 5))
        got = solver.bands(nodes, labels)
        assert got.lam.shape == (len(nodes), len(labels))
        if pot.ab == 0:
            # the closed form: no pair takes the endpoint route
            assert not got.endpoint.any() and got.endpoint_solves == 0
        for j, t in enumerate(nodes):
            scale = assemble(pot, abs(t), solver.M).scale
            for r, n in enumerate(labels):
                dense = _band_or_none(dense_band, solver, float(t), n)
                # the same clustered / skipped verdict
                assert (dense is None) == (not got.ok[j, r])
                if dense is None:
                    continue
                primal, partner = dense
                assert abs(got.lam[j, r] - primal.lam) <= 1e-12 * scale
                want = primal.coeffs, partner.coeffs
                if pot.ab == 0 and max(
                        _phase_aligned_gap(got.right[j, :, r], want[0]),
                        _phase_aligned_gap(got.left[j, :, r], want[1])
                        ) > 1e-10:
                    # the dense reference misses the bound here: the 30-digit
                    # recurrence is the reference
                    want = one_sided_reference(pot, solver.M, t, n)[1:]
                assert _phase_aligned_gap(got.right[j, :, r], want[0]) <= 1e-10
                assert _phase_aligned_gap(got.left[j, :, r], want[1]) <= 1e-10

    @given(st.one_of(
        st.tuples(st.floats(-6.0, 6.0), st.floats(0.2, 2.0),
                  st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)),
        st.sampled_from(["left", "right", "free"])),
        st.one_of(st.sampled_from(EDGE_TS),
                  st.floats(-PI, PI, exclude_min=True)))
    @settings(max_examples=40, deadline=None)
    def test_certified_or_dense_refusal(self, dense_band, exact_lambdas,
                                        amps, t):
        # log10 |a/b|, sqrt|ab| and the phases; or one-sided and free
        if amps == "free":
            pot = MathieuPotential(0, 0)
        elif isinstance(amps, str):
            z = 0.7 - 0.4j
            pot = MathieuPotential(z, 0) if amps == "left" else \
                MathieuPotential(0, z)
        else:
            q, rho, phi, psi = amps
            pot = MathieuPotential(rho * 10 ** (q / 2) * cmath.exp(1j * phi),
                                   rho * 10 ** (-q / 2) * cmath.exp(1j * psi))
        solver = BandSolver(pot, track_curves(
            pot, t_grid=default_grid(16), n_range=range(-3, 4), M=12))
        labels = list(range(-3, 4))
        got = solver.bands([t, -t], labels)
        assert got.endpoint_solves <= 1   # t and -t share one node
        for j, tj in enumerate(got.t):
            op = assemble(pot, tj, solver.M)
            cert = 1e-8 * max(op.scale, 1.0)
            live = []
            for r, n in enumerate(labels):
                if not got.ok[j, r]:
                    # the dense reference refuses it too: it raises, or
                    # its pair misses the certificate
                    dense = _band_or_none(dense_band, solver, tj, n)
                    if dense is not None and max(
                            p.residual for p in dense) <= cert:
                        # where it certifies one, the 50-digit eigenvalues
                        # of the same truncation show that its eigenvalue
                        # does not settle the cluster link: they link it
                        # to another (rounding split a cluster), or, off
                        # the endpoints, the nearest lies farther from it
                        # than the link
                        lam = dense[0].lam
                        w = exact_lambdas(pot, solver.M, abs(tj))
                        near = np.sort(np.abs(w - lam))
                        gaps = np.sort(np.abs(w - w[np.argmin(np.abs(
                            w - lam))]))
                        link = CLUSTER_RTOL * (1 + abs(lam))
                        assert gaps[1] < link or (
                            near[0] > link and abs(tj) not in (0.0, PI))
                    continue
                x, y, lam = (got.right[j, :, r], got.left[j, :, r],
                             got.lam[j, r])
                assert np.isfinite(lam)
                assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
                res = np.linalg.norm(op.apply(x[:, None])[:, 0] - lam * x)
                lres = np.linalg.norm(op.apply(y[:, None], adjoint=True)[:, 0]
                                      - np.conj(lam) * y)
                assert res <= cert and lres <= cert
                live.append((x, y))
            # no two labels share one eigenpair: a left vector pairs with
            # its own right vector, and is (bi)orthogonal to the others'
            for i, (xi, yi) in enumerate(live):
                for xk, yk in live[i + 1:]:
                    assert abs(np.vdot(yk, xi)) < 0.5 * abs(np.vdot(yi, xi))
                    assert abs(np.vdot(yi, xk)) < 0.5 * abs(np.vdot(yk, xk))


    def test_pi_pairs_polished_past_the_left_out_edge(self, dense_band,
                                                      exact_lambdas):
        # a coupling ratio of 1e5 tilts the adjoint vectors toward k = M,
        # the row the pi blocks leave out: the simple pairs of bands -2..1
        # miss the certificate on the M-truncation by a factor of 190 to
        # 270 there, and bands polishes them.  Bands -3 and 2 (4.6e-8
        # apart) and 3 (2e-13 from -4) are clusters, which are not
        # polished; the dense reference finds them deficient
        pot = MathieuPotential(632.46, 0.0063246)
        solver = BandSolver(pot, track_curves(
            pot, t_grid=default_grid(16), n_range=range(-3, 4), M=12))
        cert = 1e-8 * assemble(pot, PI, 12).scale
        sol = endpoint_spectrum(pot, PI, 12)
        assert np.min(sol.left_residuals[np.argsort(sol.lambdas.real)[:4]]
                      ) > 100 * cert
        w = exact_lambdas(pot, 12, PI)
        got = solver.bands([PI, -PI], range(-3, 4))
        assert got.ok[:, 1:5].all() and not got.ok[:, [0, 5, 6]].any()
        for n in (-3, 2, 3):
            with pytest.raises(MultipleEigenvalueError):
                dense_band(solver, PI, n)
        for j, tj in enumerate(got.t):
            op = assemble(pot, tj, 12)
            for r in range(1, 5):
                x, y, lam = got.right[j, :, r], got.left[j, :, r], got.lam[j, r]
                assert np.min(np.abs(w - lam)) <= 1e-14 * op.scale
                assert np.linalg.norm(op.apply(x[:, None])[:, 0]
                                      - lam * x) <= cert
                assert np.linalg.norm(op.apply(y[:, None], adjoint=True)[:, 0]
                                      - np.conj(lam) * y) <= cert

    # (log10 |a/b|, sqrt|ab|, phases, t, labels): simple pairs near pi
    # that the batch does not certify and the dense reference does.  At
    # one ulp below pi the pair 1, -2 is 1.3e-4 apart (the link is 9e-6)
    # and three sweeps leave it at residual 3e-4 against a certificate of
    # 7e-5; at 2.9e-6 below pi band 3's untracked partner -4, shifted to
    # its free value, converges onto band 3's eigenvalue
    NEAR_PI_SIMPLE = [
        ((-5.930909638517155, 1.0489410466623765, 5.767698098947163,
          3.8799799901930423), 3.1415926535897922, [1, -2]),
        ((4.577864139852501, 0.4216674384802277, 3.227059181082403,
          2.2711580390326565), 3.1415897426674864, [3]),
    ]

    @staticmethod
    def _skewed(amps):
        q, rho, phi, psi = amps
        return MathieuPotential(rho * 10 ** (q / 2) * cmath.exp(1j * phi),
                                rho * 10 ** (-q / 2) * cmath.exp(1j * psi))

    @pytest.mark.parametrize("amps,t,labels", NEAR_PI_SIMPLE)
    def test_near_pi_simple_pairs_dense_certifies(self, dense_band,
                                                  exact_lambdas, amps, t,
                                                  labels):
        pot = self._skewed(amps)
        solver = BandSolver(pot, track_curves(
            pot, t_grid=default_grid(16), n_range=range(-3, 4), M=12))
        cert = 1e-8 * assemble(pot, t, 12).scale
        w = exact_lambdas(pot, 12, t)
        for n in labels:
            primal, partner = dense_band(solver, t, n)
            assert max(primal.residual, partner.residual) <= cert
            i = np.argmin(np.abs(w - primal.lam))
            link = CLUSTER_RTOL * (1 + abs(primal.lam))
            assert np.sort(np.abs(w - w[i]))[1] > 2 * link   # simple

    @pytest.mark.xfail(strict=True, reason="no fallback: the batch refuses "
                       "these simple near-pi pairs")
    @pytest.mark.parametrize("amps,t,labels", NEAR_PI_SIMPLE)
    def test_near_pi_simple_pairs_certified(self, amps, t, labels):
        pot = self._skewed(amps)
        solver = BandSolver(pot, track_curves(
            pot, t_grid=default_grid(16), n_range=range(-3, 4), M=12))
        assert solver.bands([t], labels).ok.all()


def _assert_same_pairs(solver, got, want):
    """The same verdicts, eigenvalues within 1e-13 relative, and vectors
    within 1e-12 after phase alignment, or within the rounding of the
    truncation over the distance to the nearest other label's eigenvalue
    where that is larger: near t = 0 bands n and -n lie 2e-5 apart, and
    both routes' vectors carry that rounding."""
    assert np.array_equal(got.ok, want.ok)
    ok = got.ok
    assert np.all(np.abs(got.lam - want.lam)[ok]
                  <= 1e-13 * np.maximum(np.abs(want.lam), 1.0)[ok])
    sep = np.abs(got.lam[:, :, None] - got.lam[:, None, :])
    sep[:, np.arange(sep.shape[1]), np.arange(sep.shape[1])] = np.inf
    eps = np.finfo(float).eps
    scale = flq._scale(solver.pot, got.t, solver.M)[:, None]
    with np.errstate(divide="ignore"):     # a refused double's members
        tol = np.maximum(1e-12, eps * scale / sep.min(axis=2))
    j, r = np.nonzero(ok)
    for x, w in ((got.right[j, :, r], want.right[j, :, r]),
                 (got.left[j, :, r], want.left[j, :, r])):
        ph = np.sum(np.conj(x) * w, axis=1)
        gap = np.linalg.norm(x * (ph / np.abs(ph))[:, None] - w, axis=1)
        assert np.all(gap <= tol[j, r])


class TestWindowBatch:
    """The batch iterates on the tracking's window k = -K..K and pads its
    vectors with zeros to M; the same batch on the M-truncation is the
    reference."""

    @pytest.mark.parametrize("name", ["bench-sa", "bench-eq", "bench-un",
                                      "bench-os", "asym", "large-ab"])
    def test_matches_m_truncation(self, pots, m_truncation_bands, name):
        from mathieuspec.expansion import _passes, make_plan
        pot = pots[name]
        solver = make_solver(pot, 5)
        nodes = np.concatenate([p[0] for p in _passes(make_plan(pot, 4))]
                               + [solver.curves.t_samples])
        labels = solver.curves.n_values
        got = solver.bands(nodes, labels)
        _assert_same_pairs(solver, got,
                           m_truncation_bands(solver, nodes, labels))
        K = solver.curves.window_M
        assert K < solver.M
        if pot.ab != 0:
            # every batch pair stayed on the window: its tail is exact zeros
            batch = got.ok & ~got.endpoint
            tails = got.right[:, np.abs(solver.ks) > K].transpose(0, 2, 1)
            assert batch.sum() > 0.9 * batch.size
            assert np.all(tails[batch] == 0)

    def test_widens_a_window_the_pairs_outgrow(self, pots,
                                                m_truncation_bands):
        # on k = -6..6 the vectors of bands 5 and 6 keep tails of order
        # 1e-2 at the window's edge, so their padded pairs miss the
        # M-truncation and start over on k = -12..12
        pot = pots["bench-un"]
        solver = make_solver(pot, 5)
        narrow = BandSolver(pot, dataclasses.replace(solver.curves,
                                                     window_M=6))
        ts = np.linspace(-3.0, 3.0, 13)
        labels = solver.curves.n_values
        got = narrow.bands(ts, labels)
        _assert_same_pairs(solver, got, m_truncation_bands(solver, ts, labels))
        assert got.ok.all()
        outer = np.abs(got.right[:, np.abs(solver.ks) > 6]).max(axis=(0, 1))
        assert np.all(outer[np.abs(np.array(labels)) >= 5] > 1e-6)

    def test_unconverged_pairs_sweep_again(self, monkeypatch):
        # an expand job of the benchmark: after three sweeps bands 0 and -1
        # at +-2.8594 keep residual 4.4e-10 of the scale, inside the
        # certificate; one more sweep brings them to rounding level
        pot = MathieuPotential(-3.10935668111782 + 1.2937094285345454j,
                               0.8537644597722748 + 0.37043935375598724j)
        solver = make_solver(pot, 5)
        ts = [2.859363103445864, -2.859363103445864]
        scale = flq._scale(pot, np.array(ts), solver.M)[:, None]

        def worst(got):
            assert got.ok.all()
            return np.max(np.maximum(got.residual, got.left_residual)
                          / scale)

        assert worst(solver.bands(ts, [0, -1])) <= 1e-16
        monkeypatch.setattr(flq, "EXTRA_SWEEPS", 0)
        assert worst(solver.bands(ts, [0, -1])) > 1e-10


# --------------------------------------------------------------------------
# Closed-form pairs of one-sided (ab = 0) potentials
# --------------------------------------------------------------------------

def _expand_nodes(pot, stride):
    """Every ``stride``-th node of the ``expand`` plan, and the edge ts."""
    from mathieuspec.expansion import _passes, make_plan
    plan = make_plan(pot, 4)
    nodes = np.concatenate([p[0] for p in _passes(plan)])
    return plan, np.concatenate([nodes[::stride], EDGE_TS])


class TestOneSidedClosedForm:
    @pytest.mark.parametrize("name", ["bench-os", "gasymov", "left"])
    def test_matches_mpmath_reference(self, pots, one_sided_reference,
                                      name):
        # lambda, the phase-aligned vectors and |d| against the 30-digit
        # recurrence, at rounding level
        pot = pots[name]
        plan, ts = _expand_nodes(pot, 37)
        solver = make_solver(pot, plan.n_max + 1)
        labels = list(range(-4, 5))
        got = solver.bands(ts, labels)
        eps = np.finfo(float).eps
        for j, r in zip(*np.nonzero(got.ok)):
            lam, x, y = one_sided_reference(pot, solver.M, ts[j], labels[r])
            gx, gy = got.right[j, :, r], got.left[j, :, r]
            assert abs(got.lam[j, r] - lam) <= 4 * eps * max(abs(lam), 1)
            assert _phase_aligned_gap(gx, x) <= 1e-13
            assert _phase_aligned_gap(gy, y) <= 1e-13
            d = abs(np.vdot(y, x))
            assert abs(abs(np.vdot(gy, gx)) - d) <= 1e-13 * d

    @pytest.mark.parametrize("name", ["bench-os", "gasymov", "left", "free"])
    def test_no_dense_solve(self, monkeypatch, pots, dense_band, name):
        # the tracking and bands make no eigensolve for ab = 0, and refuse
        # exactly the pairs the dense reference refuses
        pot = pots[name]
        calls = []
        for fn in ("eig", "eigvals", "eigh"):
            def counted(*args, _real=getattr(np.linalg, fn), _fn=fn, **kwargs):
                calls.append(_fn)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, fn, counted)
        plan, ts = _expand_nodes(pot, 11)
        solver = make_solver(pot, plan.n_max + 1)
        labels = list(range(-5, 6))
        got = solver.bands(ts, labels)
        assert calls == []
        assert not got.endpoint.any() and got.endpoint_solves == 0
        monkeypatch.undo()
        assert (~got.ok).any()
        for j, t in enumerate(ts):
            for r, n in enumerate(labels):
                dense = _band_or_none(dense_band, solver, float(t), n)
                assert (dense is None) == (not got.ok[j, r])

    @given(st.booleans(), st.floats(-6.0, 3.0), st.floats(0.0, TWO_PI),
           st.one_of(st.sampled_from(EDGE_TS),
                     st.floats(-PI, PI, exclude_min=True)),
           st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_certified_or_refused_with_dense(self, dense_band, left, mag,
                                             phase, t, n):
        # a = 0 or b = 0, |coupling| from 1e-6 to 1e3 at any phase
        c = 10.0 ** mag * cmath.exp(1j * phase)
        pot = MathieuPotential(c, 0) if left else MathieuPotential(0, c)
        solver = BandSolver(pot, track_curves(
            pot, t_grid=default_grid(16), n_range=range(-6, 7), M=16))
        got = solver.bands([t], [n])
        refused = _band_or_none(dense_band, solver, t, n) is None
        assert refused == (not got.ok[0, 0])
        if refused:
            return
        x, y, lam = got.right[0, :, 0], got.left[0, :, 0], got.lam[0, 0]
        assert np.isfinite(lam)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
        op = assemble(pot, got.t[0], solver.M)
        cert = 1e-8 * max(op.scale, 1.0)
        res = np.linalg.norm(op.apply(x[:, None])[:, 0] - lam * x)
        lres = np.linalg.norm(op.apply(y[:, None], adjoint=True)[:, 0]
                              - np.conj(lam) * y)
        assert res <= cert and lres <= cert


# --------------------------------------------------------------------------
# One route per pair
# --------------------------------------------------------------------------

@pytest.fixture
def solve_log(monkeypatch):
    """Rows of every LAPACK eigensolve (``eig``, ``eigvals``, ``eigh``)
    made outside ``track_curves`` and ``stable_m``, each with the M of the
    endpoint solve it belongs to (None outside one), and the count of
    dense SVDs."""
    log = {"solves": [], "svd": 0}
    state = {"tracking": 0, "M": None}

    def tracking(fn):
        def inner(*args, **kwargs):
            state["tracking"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state["tracking"] -= 1
        return inner

    def endpoint(pot, t, M, _real=flq.endpoint_spectrum):
        state["M"] = M
        try:
            return _real(pot, t, M)
        finally:
            state["M"] = None

    def svd(*args, _real=np.linalg.svd, **kwargs):
        log["svd"] += 1
        return _real(*args, **kwargs)

    monkeypatch.setattr(flq, "track_curves", tracking(flq.track_curves))
    monkeypatch.setattr(flq, "stable_m", tracking(flq.stable_m))
    monkeypatch.setattr(flq, "endpoint_spectrum", endpoint)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for name in ("eig", "eigvals", "eigh"):
        def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
            if not state["tracking"]:
                log["solves"].append((len(a), state["M"]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log


class TestSingleRoute:
    @pytest.mark.parametrize("name", ["bench-sa", "bench-eq", "bench-un",
                                      "bench-os", "asym", "large-ab",
                                      "opposite"])
    def test_no_dense_route(self, pots, solve_log, name):
        # bands on the expand nodes plus 0 and +-pi, and the endpoint
        # verdicts of detect_singularities on the bench windows around
        # (k pi)^2: no SVD, and no eigensolve beyond the parity blocks
        # (at most M + 1 rows) outside the tracking
        from mathieuspec.expansion import _passes, make_plan
        pot = pots[name]
        plan = make_plan(pot, 4)
        solver = make_solver(pot, plan.n_max + 1)
        nodes = np.concatenate([p[0] for p in _passes(plan)]
                               + [[0.0, PI, -PI]])
        labels = range(-4, 5)
        got = solver.bands(nodes, labels)
        ends = 0 if pot.ab == 0 else 2         # |t| = 0 and pi
        assert got.endpoint_solves == ends
        assert got.endpoint.sum() == (0 if pot.ab == 0 else 3 * len(labels))
        for k in range(1, 6):
            c, h = (k * PI) ** 2, 0.7 * k * PI
            detect_singularities(pot, (c - h, c + h))
        assert solve_log["svd"] == 0
        assert all(M is not None and rows <= M + 1
                   for rows, M in solve_log["solves"])
        assert (len(solve_log["solves"]) > 0) == (pot.ab != 0)
