import math

import numpy as np
import pytest
import scipy.linalg as sla

from mathieuspec import (MathieuPotential, MultipleEigenvalueError,
                         ValidationError, adjoint_solution, assemble,
                         bloch_function, default_grid, discriminant, eig,
                         make_solver, track_curves, two_periodic_pair)
from mathieuspec import floquet as flq
from mathieuspec.floquet import (CLUSTER_RTOL, GM_RTOL, _cluster_indices,
                                 _reflect, stable_m)

TWO_PI = 2.0 * math.pi
PI = math.pi


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
    def test_free_exact(self):
        op = assemble(MathieuPotential(0, 0), 0.3, 8)
        sol = eig(op)
        assert np.max(sol.residuals) == 0.0
        assert sorted(sol.lambdas.real) == pytest.approx(sorted(op.diag), abs=0)

    def test_triangular_doubles_deficient(self):
        sol = eig(assemble(MathieuPotential(0, 1), 0.0, 24))
        for n in range(1, 7):
            lam = (TWO_PI * n) ** 2
            idx = np.argsort(np.abs(sol.lambdas - lam))[:2]
            assert abs(sol.lambdas[idx[0]] - lam) <= 1e-10 * (1 + lam)
            assert abs(sol.lambdas[idx[1]] - lam) <= 1e-10 * (1 + lam)
            assert sol.deficiency_flags[idx].all()

    def test_free_doubles_not_deficient(self):
        sol = eig(assemble(MathieuPotential(0, 0), 0.0, 12))
        assert not sol.deficiency_flags.any()

    def test_left_vectors_solve_adjoint(self):
        # the self-adjoint input takes the gauge-transformed Hermitian path;
        # the dense matrix certifies both paths independently of the
        # residuals eig computes itself
        for pot in (MathieuPotential(1, 2),
                    MathieuPotential(1 + 0.5j, 1 - 0.5j)):
            op = assemble(pot, 0.8, 12)
            sol = eig(op)
            a = op.to_dense()
            i = sol.nearest((TWO_PI * 3 + 0.8) ** 2)
            lam = sol.lambdas[i]
            v = sol.vectors[:, i]
            w = sol.left_vectors[:, i]
            res = np.linalg.norm(a @ v - lam * v)
            lres = np.linalg.norm(a.conj().T @ w - np.conj(lam) * w)
            assert res <= 1e-8 * op.scale
            assert lres <= 1e-8 * op.scale
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_deficiency_matches_svd(self):
        # self-adjoint clusters are flagged from |lambda_i - mean|; the
        # dense singular values of A - mean I must give the same flags
        clusters = flagged = 0
        for pot in (MathieuPotential(0.5, 0.5),
                    MathieuPotential(0.4 + 0.3j, 0.4 - 0.3j),
                    MathieuPotential(1 + 0.5j, 1 - 0.5j),
                    MathieuPotential(2, 2)):
            for t in (0.0, PI, 1e-9, PI - 1e-9):
                for m in (12, 24, 40):
                    op = assemble(pot, t, m)
                    assert op.is_hermitian
                    sol = eig(op)
                    a = op.to_dense()
                    want = np.zeros(len(sol.lambdas), dtype=bool)
                    for cl in sol.clusters:
                        mean = sol.lambdas[cl].mean()
                        sv = np.linalg.svd(a - mean * np.eye(len(a)),
                                           compute_uv=False)
                        if np.sum(sv < GM_RTOL * max(op.scale, 1.0)) < len(cl):
                            want[cl] = True
                    assert np.array_equal(sol.deficiency_flags, want)
                    clusters += len(sol.clusters)
                    flagged += int(want.sum())
        # both outcomes are exercised: clustered band edges, some flagged
        assert clusters > 100 and flagged > 0

    def test_unit_norm(self):
        sol = eig(assemble(MathieuPotential(1 - 0.3j, 0.4), 1.2, 10))
        norms = np.linalg.norm(sol.vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_matches_discriminant_root(self):
        # lowest eigenvalue of (1,1) at t=0 vs the ODE-based root of F = 2
        pot = MathieuPotential(1, 1)
        sol = eig(assemble(pot, 0.0, 20))
        lam0 = sol.lambdas[np.argmin(sol.lambdas.real)]
        assert abs(discriminant(pot, lam0) - 2.0) <= 1e-8


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


class TestClusterIndices:
    def test_random_near_duplicates(self):
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
            assert (_cluster_indices(lams, CLUSTER_RTOL)
                    == _union_find_clusters(lams, CLUSTER_RTOL))

    def test_transitive_chains(self):
        # a-b and b-c are linked but |a - c| >= tol: one cluster
        for base in (1e-2, 1.0, 37.5, 1e4):
            tol = CLUSTER_RTOL * (1.0 + base)
            step = 0.9 * tol
            lams = np.array([base + 3.0 * step, base, base + 5.0 * tol,
                             base + step, base + 2.0 * step], dtype=complex)
            assert abs(lams[1] - lams[0]) >= tol
            got = _cluster_indices(lams, CLUSTER_RTOL)
            assert got == _union_find_clusters(lams, CLUSTER_RTOL)
            assert got == [[0, 1, 3, 4], [2]]

    def test_magnitude_range(self):
        mags = np.logspace(-2, 4, 25)
        lams = np.concatenate([mags, mags * (1.0 + 0.5 * CLUSTER_RTOL),
                               mags * (1.0 + 3.0 * CLUSTER_RTOL) + 1j * mags])
        got = _cluster_indices(lams, CLUSTER_RTOL)
        assert got == _union_find_clusters(lams, CLUSTER_RTOL)
        assert sum(len(g) > 1 for g in got) == len(mags)

    def test_empty_and_single(self):
        empty = np.array([], dtype=complex)
        assert _cluster_indices(empty, CLUSTER_RTOL) == []
        assert _cluster_indices(np.array([2.0 + 0j]), CLUSTER_RTOL) == [[0]]


def _eager_flags(sol):
    """Reference: the per-cluster loop eig ran on every solve before the
    deficiency verdicts went on demand."""
    op, w = sol.op, sol.lambdas
    dense = op.to_dense()
    flags = np.zeros(len(w), dtype=bool)
    bidiagonal = (op.super == 0) != (op.sub == 0)
    for cl in sol.clusters:
        if bidiagonal:
            flags[cl] = True
            continue
        mean = w[cl].mean()
        if op.is_hermitian:
            sv = np.abs(w - mean)
        else:
            sv = np.linalg.svd(dense - mean * np.eye(len(w)),
                               compute_uv=False)
        if int(np.sum(sv < GM_RTOL * max(op.scale, 1.0))) < len(cl):
            flags[cl] = True
    return flags


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
        rng = np.random.default_rng(3)
        kinds = set()
        for pot in (MathieuPotential(1 + 0.5j, 1 - 0.5j),   # Hermitian
                    MathieuPotential(1, 2), MathieuPotential(1, -1),
                    MathieuPotential(0, 1), MathieuPotential(1.5, 0)):
            for t in (0.0, PI, 1e-9, PI - 1e-9):
                for m in (12, 24):
                    sol = eig(assemble(pot, t, m))
                    want = _eager_flags(sol)
                    # ask in a random order first: a verdict must not
                    # depend on which member of its cluster asked
                    for i in rng.permutation(len(sol.lambdas))[:10]:
                        assert sol.is_deficient(int(i)) == want[i]
                    assert np.array_equal(sol.deficiency_flags, want)
                    if sol.clusters:
                        kinds.add(bool(want.any()))
        assert kinds == {True, False}

    def test_tracking_makes_no_svd(self, svd_count):
        track_curves(MathieuPotential(0.5 + 0.2j, 0.3 - 0.6j),
                     n_range=range(-3, 4))
        assert svd_count == []

    def test_one_svd_per_cluster(self, svd_count):
        solver = make_solver(MathieuPotential(1, 2), 2)
        assert svd_count == []
        sol = solver.solution(0.0)
        i = sol.nearest(solver.curves.value(2, 0.0))
        assert sol.is_clustered(i)
        # (2, -2) share one cluster at t = 0
        for _ in range(3):
            for n in (2, -2):
                assert solver.band(0.0, n)[3] == "clustered"
        assert len(svd_count) == 1
        # (2, -3) share one at t = pi, and -pi, reflected from pi, reads
        # the same verdict
        for t in (PI, -PI, PI):
            for n in (2, -3):
                assert solver.band(t, n)[3] == "clustered"
        assert len(svd_count) == 2


REFLECTION_POTS = {
    "eq": MathieuPotential(0.8 + 0.6j, 0.6 - 0.8j),
    "un": MathieuPotential(0.5 + 0.2j, 0.3 - 0.6j),
    "sa": MathieuPotential(1 + 0.5j, 1 - 0.5j),
    "os": MathieuPotential(0, 1),
}


class TestReflection:
    @pytest.mark.parametrize("name", sorted(REFLECTION_POTS))
    def test_matches_direct_solve(self, name):
        pot = REFLECTION_POTS[name]
        for t in (0.37, 1.9, 1e-9, PI - 1e-9, PI):
            for m in (12, 32):
                sol = eig(assemble(pot, t, m))
                ref = _reflect(sol)
                op = assemble(pot, -t, m)
                direct = eig(op)
                assert ref.op.t == -t
                assert np.array_equal(ref.op.diag, op.diag)
                scale = op.scale
                assert np.max(np.abs(np.sort_complex(ref.lambdas)
                                     - np.sort_complex(direct.lambdas))) \
                    <= 1e-12 * scale
                eps = np.finfo(float).eps
                for i in range(len(ref.lambdas)):
                    if ref.is_clustered(i):
                        continue
                    j = direct.nearest(ref.lambdas[i])
                    d_ref = abs(np.vdot(ref.left_vectors[:, i],
                                        ref.vectors[:, i]))
                    d_dir = abs(np.vdot(direct.left_vectors[:, j],
                                        direct.vectors[:, j]))
                    # a near-double (the unequal pair at pi - 1e-9 is 7e-5
                    # apart) moves |d| by rounding / gap in any solve
                    gap = np.partition(np.abs(ref.lambdas - ref.lambdas[i]),
                                       1)[1]
                    assert abs(d_ref - d_dir) <= max(1e-10,
                                                     eps * scale / gap)
                # the copied certificates hold for the reflected vectors
                res = np.linalg.norm(op.apply(ref.vectors)
                                     - ref.vectors * ref.lambdas, axis=0)
                lres = np.linalg.norm(
                    op.apply(ref.left_vectors, adjoint=True)
                    - ref.left_vectors * np.conj(ref.lambdas), axis=0)
                assert np.max(np.abs(res - ref.residuals)) <= eps * scale
                assert np.max(np.abs(lres - ref.left_residuals)) \
                    <= eps * scale
                cert = 1e-8 * max(scale, 1.0)
                assert res.max() <= cert and lres.max() <= cert
                # the two solves order their eigenvalues differently
                match = [direct.nearest(lam) for lam in ref.lambdas]
                assert np.array_equal(ref.deficiency_flags,
                                      direct.deficiency_flags[match])
                assert sorted(map(len, ref.clusters)) == \
                    sorted(map(len, direct.clusters))

    def test_solver_reflects_negative_t(self, monkeypatch):
        solver = make_solver(MathieuPotential(1, 2), 2)
        t = float(solver.curves.t_samples[40])
        calls = []
        monkeypatch.setattr(flq, "eig", lambda op: calls.append(op))
        sol = solver.solution(-t)
        assert calls == []
        assert sol.op.t == -t and sol is solver.solution(-t)
        assert np.array_equal(sol.lambdas, solver.solution(t).lambdas)


class TestAdjoint:
    def test_self_adjoint_identical(self):
        pot = MathieuPotential(1 + 0.5j, 1 - 0.5j)
        a1 = assemble(pot, 0.9, 10).to_dense()
        a2 = assemble(pot.adjoint(), 0.9, 10).to_dense()
        assert np.array_equal(a1, a2)

    def test_conjugate_eigenvalues(self):
        pot = MathieuPotential(1, 2)
        s1 = eig(assemble(pot, 0.6, 16))
        s2 = adjoint_solution(pot, 0.6, 16)
        for lam in s1.lambdas:
            assert np.min(np.abs(s2.lambdas - np.conj(lam))) <= 1e-9 * (
                1 + abs(lam))

    def test_gasymov_adjoint_triangular(self):
        s2 = adjoint_solution(MathieuPotential(0, 1), 0.0, 16)
        lam = (TWO_PI * 2) ** 2
        idx = np.argsort(np.abs(s2.lambdas - lam))[:2]
        assert np.all(np.abs(s2.lambdas[idx] - lam) <= 1e-9 * (1 + lam))
        assert s2.deficiency_flags[idx].all()


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
            sol = eig(assemble(curves.pot, -tt, curves.M))
            lam = sol.lambdas[sol.nearest(curves.curves[5][j])]
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
        m = stable_m(MathieuPotential(1, 2), 5)
        w1 = sla.eigvals(assemble(MathieuPotential(1, 2), 1.0, m).to_dense())
        w2 = sla.eigvals(assemble(MathieuPotential(1, 2), 1.0, m + 10).to_dense())
        sel = np.abs(w1) <= (TWO_PI * 5) ** 2
        for lam in w1[sel]:
            assert np.min(np.abs(w2 - lam)) <= 1e-9 * (1 + abs(lam))

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


class TestBlochFunction:
    def test_free_concentrated(self):
        bf, partner = bloch_function(MathieuPotential(0, 0), 0.5, 3)
        assert bf.u == pytest.approx(1.0)
        assert bf.v == 0.0
        assert bf.tail_norm == 0.0
        assert partner.u == pytest.approx(1.0)

    def test_normalization_split(self):
        bf, _ = bloch_function(MathieuPotential(1, 1), 0.01, 4)
        total = abs(bf.u) ** 2 + abs(bf.v) ** 2 + bf.tail_norm ** 2
        assert total == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(bf.u) ** 2 + abs(bf.v) ** 2 - 1.0) <= 0.05

    def test_dominant_component_asym(self):
        # (1,2) at t=0 resolves through the parity path; one component
        # carries nearly all the mass
        bf, _ = bloch_function(MathieuPotential(1, 2), 0.0, 6)
        dominant = max(abs(bf.u), abs(bf.v))
        assert dominant ** 2 >= 0.9

    def test_tail_falls_with_band(self, solvers):
        solver = solvers("asym")
        t = 0.02
        for n in (4, 6, 8):
            bf, _ = bloch_function(solver.pot, t, n, M=solver.M,
                                   lambda_ref=solver.curves.value(n, t))
            assert bf.tail_norm <= 5.0 / n

    def test_jordan_refused(self):
        with pytest.raises(MultipleEigenvalueError):
            bloch_function(MathieuPotential(0, 1), 0.0, 2)

    def test_evaluate_periodicity(self):
        bf, _ = bloch_function(MathieuPotential(1, 1), 0.7, 2)
        vals = bf.evaluate(np.array([0.25, 1.25]))
        # Bloch property: Psi(x + 1) = e^{it} Psi(x)
        assert vals[1] == pytest.approx(vals[0] * np.exp(1j * 0.7), rel=1e-10)


class TestTwoPeriodicPair:
    def test_agrees_with_plain_path_when_resolvable(self):
        # at n = 2 the splitting is still above double precision, so the
        # plain eigensolve is an independent oracle for the parity path
        pot = MathieuPotential(1, 2)
        sol = eig(assemble(pot, 0.0, 24))
        lam = (TWO_PI * 2) ** 2
        idx = np.argsort(np.abs(sol.lambdas - lam))[:2]
        d_plain = sorted(abs(np.vdot(sol.left_vectors[:, i],
                                     sol.vectors[:, i])) for i in idx)
        pair = two_periodic_pair(pot, 2, at_pi=False, M=24)
        d_parity = sorted(
            abs(np.vdot(partner.coeffs, primal.coeffs))
            for (primal, partner) in pair)
        assert d_parity == pytest.approx(d_plain, rel=1e-6)

    def test_residual_certified(self):
        for (primal, _) in two_periodic_pair(MathieuPotential(1, 2), 5,
                                             at_pi=False):
            assert primal.residual <= 1e-7 * (1 + abs(primal.lam))

    def test_antiperiodic_indexing(self):
        pair = two_periodic_pair(MathieuPotential(1, -1), 1, at_pi=True)
        for (primal, partner) in pair:
            assert primal.family == "antiperiodic"
            assert abs(primal.lam - (TWO_PI + PI) ** 2) <= 0.1
            assert abs(primal.u) ** 2 + abs(primal.v) ** 2 >= 0.9

    def test_needs_nonzero_product(self):
        with pytest.raises(MultipleEigenvalueError):
            two_periodic_pair(MathieuPotential(0, 1), 2, at_pi=False)
