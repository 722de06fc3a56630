import math

import numpy as np
import pytest
from scipy.integrate import quad

from mathieuspec import (ExpansionPlan, FormMismatchError, MathieuPotential,
                         SimplenessError, TestFunction, ValidationError,
                         bloch_coefficient, coefficient_from_vectors,
                         make_plan, make_solver, reconstruct)

TWO_PI = 2.0 * math.pi
PI = math.pi


def transform_oracle(f, xi):
    """Brute-force quadrature of int f(x) e^{-i xi x} dx."""
    if f.kind == "compact-bump":
        lo, hi = f.center - f.width, f.center + f.width
    else:
        lo, hi = f.center - 14 * f.width, f.center + 14 * f.width
    re = quad(lambda x: (f(x) * np.exp(-1j * xi * x)).real, lo, hi,
              limit=400)[0]
    im = quad(lambda x: (f(x) * np.exp(-1j * xi * x)).imag, lo, hi,
              limit=400)[0]
    return complex(re, im)


class TestTransforms:
    @pytest.mark.parametrize("f", [
        TestFunction("gaussian", center=0.3, width=1.0),
        TestFunction("gaussian", center=-1.0, width=0.25),
        TestFunction("gaussian-modulated", center=0.2, width=0.7,
                     frequency=9.0),
        TestFunction("compact-bump", center=0.1, width=0.8),
    ])
    @pytest.mark.parametrize("xi", [0.0, 1.3, -7.7, 25.0])
    def test_against_quadrature(self, f, xi):
        want = transform_oracle(f, xi)
        got = f.transform(xi)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_evaluable_over_band_range(self):
        # relative accuracy of the closed forms over |xi| <= 2 pi 13 + pi,
        # checked at the bump's trickiest spot (the small-nu switch)
        f = TestFunction("compact-bump", width=0.03)
        for xi in np.linspace(-2 * PI * 13 - PI, 2 * PI * 13 + PI, 37):
            want = transform_oracle(f, xi)
            assert abs(f.transform(xi) - want) <= 1e-12 * f.width \
                + 1e-11 * abs(want)

    def test_norms(self):
        g = TestFunction("gaussian", width=0.8)
        want = quad(lambda x: abs(g(x)) ** 2, -12, 12)[0]
        assert g.norm_sq() == pytest.approx(want, rel=1e-12)
        b = TestFunction("compact-bump", width=0.6)
        wantb = quad(lambda x: abs(b(x)) ** 2, -0.6, 0.6)[0]
        assert b.norm_sq() == pytest.approx(wantb, rel=1e-12)

    def test_bad_descriptor(self):
        with pytest.raises(ValidationError):
            TestFunction("sinc")
        with pytest.raises(ValidationError):
            TestFunction("gaussian", width=0.0)


class TestCoefficients:
    def test_free_is_transform_sample(self, solvers):
        solver = solvers("free", n_max=5)
        f = TestFunction("gaussian", center=0.0, width=1.0)
        for (n, t) in ((0, 0.4), (1, 1.4), (2, 1.1)):
            a = bloch_coefficient(solver.pot, f, n, t, solver=solver)
            assert a == pytest.approx(f.transform(TWO_PI * n + t), rel=1e-12)
        # negative quasimomentum: the even-in-t numbering puts band n on
        # the mirrored frequency -(2 pi n + |t|)
        a = bloch_coefficient(solver.pot, f, 1, -2.0, solver=solver)
        assert a == pytest.approx(f.transform(-TWO_PI - 2.0), rel=1e-12)

    def test_two_periodic_pair_at_endpoints(self, solvers):
        # (1, 2) has a non-deficient double at t = 0 (bands 2, -2) and at
        # pi (bands 2, -3); each band reads its member of the parity pair
        solver = solvers("asym")
        f = TestFunction("gaussian", center=0.2, width=0.2)
        for t, ns in ((0.0, (2, -2)), (PI, (2, -3))):
            sol = solver.solution(t)
            for n in ns:
                ref = solver.curves.value(n, t)
                assert len(sol.cluster(sol.nearest(ref))) > 1
                i = sol.label(n, ref)
                c, c_adj = sol.vectors[:, i], sol.left_vectors[:, i]
                fhat = f.transform(TWO_PI * solver.ks + t)
                want = np.vdot(c_adj, fhat) / np.vdot(c_adj, c)
                got = bloch_coefficient(solver.pot, f, n, t, solver=solver)
                assert got == pytest.approx(want, rel=1e-12)

    def test_deficient_pair_refused(self, solvers):
        solver = solvers("gasymov")
        f = TestFunction("gaussian", width=0.2)
        for t in (0.0, PI):
            with pytest.raises(SimplenessError):
                bloch_coefficient(solver.pot, f, 2, t, solver=solver)

    def test_transform_decay_kills_high_bands(self, solvers):
        solver = solvers("equal", n_max=5)
        f = TestFunction("gaussian", width=1.0)
        a = bloch_coefficient(solver.pot, f, 5, 0.7, solver=solver)
        assert abs(a) <= 1e-10

    def test_gauge_invariance(self, solvers, dense_band, rng):
        solver = solvers("asym", n_max=5)
        f = TestFunction("gaussian", width=1.0)
        t, n = 1.0, 2
        primal, partner = dense_band(solver, t, n)
        v, w = primal.coeffs, partner.coeffs
        a0 = coefficient_from_vectors(f, t, solver.ks, v, w)
        x = np.linspace(-1, 1, 5)
        freqs = TWO_PI * solver.ks + t
        base = a0 * (np.exp(1j * np.outer(x, freqs)) @ v)
        for _ in range(5):
            g1 = np.exp(1j * rng.uniform(0, TWO_PI))
            g2 = np.exp(1j * rng.uniform(0, TWO_PI))
            a1 = coefficient_from_vectors(f, t, solver.ks, g1 * v, g2 * w)
            prod = a1 * (np.exp(1j * np.outer(x, freqs)) @ (g1 * v))
            assert np.max(np.abs(prod - base)) <= 1e-12 * np.max(np.abs(base))

    def test_node_axis_and_live_mask(self, solvers):
        # nodes first: one coefficient per (node, band), as node by node;
        # a column outside ``live`` gets 0 even with a zero pairing
        solver = solvers("asym", n_max=5)
        f = TestFunction("gaussian", width=1.0)
        ts = np.array([0.3, -1.2])
        got = solver.bands(ts, [1, 2])
        a = coefficient_from_vectors(f, ts, solver.ks, got.right, got.left)
        for j, t in enumerate(ts):
            want = coefficient_from_vectors(f, t, solver.ks, got.right[j],
                                            got.left[j])
            assert np.all(np.abs(a[j] - want) <= 1e-14 * np.abs(want))
        right = got.right.copy()
        right[1, :, 0] = 0.0
        live = np.array([[True, True], [False, True]])
        a_live = coefficient_from_vectors(f, ts, solver.ks, right, got.left,
                                          live)
        assert a_live[1, 0] == 0
        assert np.array_equal(a_live[live], a[live])
        with pytest.raises(SimplenessError):
            coefficient_from_vectors(f, ts, solver.ks, right, got.left)

    def test_parseval_free(self, solvers):
        solver = solvers("free", n_max=15, t_points=64)
        f = TestFunction("gaussian", width=0.35)
        gx, gw = np.polynomial.legendre.leggauss(24)
        total = 0.0
        for (lo, hi) in ((-PI, 0.0), (0.0, PI)):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            for t, wt in zip(mid + half * gx, half * gw):
                for n in range(-15, 16):
                    a = f.transform(TWO_PI * n + t)
                    total += wt * abs(a) ** 2
        total /= TWO_PI
        assert total == pytest.approx(f.norm_sq(), rel=1e-6)


class TestReconstruction:
    def test_free_fourier_inversion(self, solvers):
        solver = solvers("free", n_max=13)
        f = TestFunction("gaussian", center=0.3, width=1.0)
        plan = ExpansionPlan(form="Elegant", n_max=12, allow_mismatch=True)
        rep = reconstruct(solver.pot, f, plan, np.linspace(-1.5, 1.5, 9),
                          solver=solver)
        assert rep.max_residual <= 1e-6

    def test_elegant_small_product(self, solvers):
        pot = MathieuPotential(0.5, 0.5)
        f = TestFunction("gaussian", width=1.0)
        plan = make_plan(pot, 10)
        assert plan.form == "Elegant"
        rep = reconstruct(pot, f, plan, np.linspace(-2, 2, 9))
        assert rep.max_residual <= 1e-2

    def test_gasymov_paired(self, solvers):
        solver = solvers("gasymov", n_max=9)
        f = TestFunction("gaussian", width=1.0)
        plan = ExpansionPlan(form="Gasymov", n_max=8, h=0.02)
        rep = reconstruct(solver.pot, f, plan, np.linspace(-1.5, 1.5, 9),
                          solver=solver)
        assert rep.max_residual <= 5e-2
        assert rep.h == 0.02

    def test_residual_monotone_in_band_count(self, solvers):
        # narrow function so the transform support spans many bands
        solver = solvers("free", n_max=13)
        f = TestFunction("gaussian", width=0.06)
        residuals = []
        for n_max in (4, 8, 12):
            plan = ExpansionPlan(form="Elegant", n_max=n_max,
                                 allow_mismatch=True)
            rep = reconstruct(solver.pot, f, plan,
                              np.linspace(-0.4, 0.4, 7), solver=solver)
            residuals.append(rep.max_residual)
        assert residuals[1] <= 1.1 * residuals[0]
        assert residuals[2] <= 1.1 * residuals[1]
        assert residuals[2] < 1e-3

    def test_pair_integrand_bounded(self, solvers, dense_band):
        # the summed pair stays bounded toward the collision while the
        # largest single term dominates it there
        solver = solvers("gasymov", n_max=4)
        f = TestFunction("gaussian", width=1.0)
        x = np.array([0.3])
        freqs_of = lambda t: TWO_PI * solver.ks + t

        def term(t, n):
            primal, partner = dense_band(solver, t, n)
            v, w = primal.coeffs, partner.coeffs
            a = coefficient_from_vectors(f, t, solver.ks, v, w)
            return a * (np.exp(1j * np.outer(x, freqs_of(t))) @ v)[0]

        ref = abs(term(1e-2, 2) + term(1e-2, -2))
        for t in (1e-3, -1e-3, 1e-4, -1e-4):
            assert abs(term(t, 2) + term(t, -2)) <= 10.0 * ref

    def test_form_mismatch_guard(self):
        pot = MathieuPotential(0.5, 0.5)
        plan = ExpansionPlan(form="Gasymov", n_max=4)
        with pytest.raises(FormMismatchError):
            reconstruct(pot, TestFunction("gaussian"), plan, [0.0])

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            ExpansionPlan(form="Elegant", n_max=4, h=0.5)
        with pytest.raises(ValidationError):
            ExpansionPlan(form="Weird", n_max=4)

    def test_report_serialization(self, solvers):
        solver = solvers("free", n_max=5)
        plan = ExpansionPlan(form="Elegant", n_max=4, allow_mismatch=True)
        rep = reconstruct(solver.pot, TestFunction("gaussian"), plan,
                          [0.0, 0.5], solver=solver)
        d = rep.to_dict()
        assert d["form"] == "Elegant"
        assert len(d["per_point"]) == 2
        assert "h" not in d

    def test_report_counts_the_dense_route(self):
        # ab = 0: every pair comes from the closed form, which counts with
        # the batch, and the endpoint route solves nothing
        pot = MathieuPotential(0, 0)
        plan = ExpansionPlan(form="Elegant", n_max=4, allow_mismatch=True)
        rep = reconstruct(pot, TestFunction("gaussian"), plan, [0.0],
                          solver=make_solver(pot, 5))
        d = rep.to_dict()
        assert d["batch_pairs"] == (2 * 192) * 9
        assert d["endpoint_pairs"] == 0
        assert d["endpoint_solves"] == 0
        assert "dense_fallbacks" not in d and "dense_solves" not in d


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts LAPACK's dense eigensolves with vectors."""
    calls = []
    real = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append("eig")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


class TestFastPath:
    """Counts, not timings: the batch makes no dense solve."""

    @pytest.mark.parametrize("name", ["bench-eq", "bench-un"])
    def test_reconstruct_solves_only_rejected_nodes(self, pots, name,
                                                    eig_calls):
        pot = pots[name]
        plan = make_plan(pot, 4)
        solver = make_solver(pot, plan.n_max + 1)
        # the tracking solves eigenvalues only
        assert eig_calls == []
        rep = reconstruct(pot, TestFunction("gaussian"), plan,
                          np.linspace(-2.0, 2.0, 9), solver=solver)
        # the quadrature never sits on t = 0 or pi: no parity blocks
        assert eig_calls == []
        assert rep.endpoint_solves == rep.endpoint_pairs == 0
        assert rep.batch_pairs == (2 * 192) * 9
        assert rep.skipped_nodes == 0
