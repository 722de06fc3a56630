import math
from fractions import Fraction

import numpy as np
import pytest

from mathieuspec import (DegenerateProductError, MathieuPotential,
                         QuadratureError, classify_operator,
                         detect_singularities, dn_profile, dn_profiles,
                         integral_inverse_dn, region_decomposition)
from mathieuspec import floquet as flq
from mathieuspec import spectrality as spc
from mathieuspec.spectrality import (ASYMPTOTICALLY_ELEGANT, ELEGANT, GASYMOV,
                                     _projection_norms)

TWO_PI = 2.0 * math.pi
PI = math.pi


class TestProfiles:
    def test_self_adjoint_unit(self, solvers):
        solver = solvers("sa")
        grid = np.linspace(-PI, PI, 41)[1:]
        prof = dn_profile(solver.pot, 3, grid, solver=solver)
        eig_vals = prof.by_method("eigenvector")
        wr_vals = prof.by_method("wronskian")
        assert len(eig_vals) == 40 and not prof.excluded
        assert max(abs(d - 1.0) for _, d in eig_vals) <= 1e-6
        assert max(abs(d - 1.0) for _, d in wr_vals) <= 1e-6

    def test_method_coverage_and_agreement(self, solvers):
        for name in ("equal", "asym", "sa"):
            solver = solvers(name)
            grid = np.linspace(0.05, PI - 0.05, 25)
            for n in (2, 5):
                prof = dn_profile(solver.pot, n, grid, solver=solver)
                ev = dict(prof.by_method("eigenvector"))
                wr = dict(prof.by_method("wronskian"))
                assert len(wr) >= 0.1 * len(ev)
                for t, dw in wr.items():
                    assert abs(ev[t] - dw) <= 0.05 * dw

    def test_asymmetric_endpoint_decay(self, solvers):
        # log |d_n(0)| falls linearly with slope log |a/b|
        solver = solvers("asym")
        d = _projection_norms(solver, [0.0], range(4, 9))[0][0]
        assert not np.isnan(d).any()
        logs = np.log(d)
        slope = np.polyfit(np.arange(4, 9), logs, 1)[0]
        assert abs(slope - math.log(0.5)) <= 0.25 * abs(math.log(0.5))

    @pytest.mark.parametrize("name", ["asym", "gasymov"])
    def test_profiles_share_one_bands_call(self, solvers, monkeypatch, name):
        # every band's profile from one bands call, each as on its own
        solver = solvers(name)
        grid = np.linspace(-PI, PI, 33)
        alone = [dn_profile(solver.pot, n, grid, solver=solver)
                 for n in (1, 2, 3)]
        calls = []
        real = flq.BandSolver.bands

        def bands(self, ts, labels):
            calls.append(list(labels))
            return real(self, ts, labels)

        monkeypatch.setattr(flq.BandSolver, "bands", bands)
        together = dn_profiles(solver.pot, [1, 2, 3], grid, solver=solver)
        assert calls == [[1, 2, 3]]
        for got, want in zip(together, alone):
            assert got.n == want.n
            assert got.samples == want.samples
            assert got.excluded == want.excluded
            assert got.two_term_gap == want.two_term_gap

    def test_two_term_diagnostic(self, solvers):
        solver = solvers("asym")
        prof = dn_profile(solver.pot, 5, np.linspace(0.1, 3.0, 9),
                          solver=solver)
        for t, gap in prof.two_term_gap:
            assert gap <= 10.0 / 5

    def test_symmetry_in_t(self, solvers, dn_direct):
        for name in ("asym", "negprod"):
            solver = solvers(name)
            for n in (1, 4):
                for t in (0.37, 1.9):
                    dp = _projection_norms(solver, [t], [n])[0][0, 0]
                    assert abs(dp - dn_direct(solver, n, -t)) <= 1e-8

    def test_interior_near_unity(self, solvers):
        # away from the endpoints the projections are near-orthogonal
        for name in ("equal", "asym", "negprod"):
            solver = solvers(name)
            grid = np.linspace(0.2, PI - 0.2, 15)
            for n in range(1, 9):
                prof = dn_profile(solver.pot, n, grid, solver=solver)
                for _, d in prof.by_method("eigenvector"):
                    assert abs(d - 1.0) <= 0.5

    def test_band_window_magnitudes(self, solvers):
        # inside the outermost scaled window |d| is order one even for
        # unequal moduli
        solver = solvers("asym")
        for n in (2, 4, 6):
            reg = region_decomposition(solver.pot, n)
            lo, hi = reg.i5
            assert hi > lo
            ts = np.linspace(max(lo * 1.1, lo + 1e-9), hi, 4)
            for d in _projection_norms(solver, ts, [n])[0][:, 0]:
                if np.isnan(d):
                    continue
                assert 0.2 <= d <= 5.0

    @pytest.mark.xfail(strict=True, reason=(
        "stated desk-scale signature contradicts the coupling analysis: the "
        "|d_2| dip of the one-sided potential is confined to t of order the "
        "band-2 decay constant (~1e-8), far below any grid; both independent "
        "methods measure |d_2| ~ 1 down to t = 1e-6"))
    def test_gasymov_profile_monotone_dip(self, solvers):
        solver = solvers("gasymov", n_max=3)
        ts = np.array([8e-3, 4e-3, 2e-3, 1e-3, 5e-4])
        vals = _projection_norms(solver, ts, [2])[0][:, 0]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 0.5


class TestInverseIntegrals:
    def test_self_adjoint_full_circle(self, solvers):
        solver = solvers("sa", n_max=3)
        res = integral_inverse_dn(solver.pot, 2, (-PI + 1e-9, PI),
                                  solver=solver)
        assert res.value == pytest.approx(2 * PI, abs=1e-4)
        assert not res.divergence_flag

    def test_bounded_for_two_sided(self, solvers):
        solver = solvers("equal", n_max=4)
        res = integral_inverse_dn(solver.pot, 3, (-PI + 1e-9, PI),
                                  solver=solver)
        assert res.value <= 10.0
        assert not res.divergence_flag

    def test_gasymov_excluded_endpoint(self, solvers):
        solver = solvers("gasymov", n_max=3)
        res = integral_inverse_dn(solver.pot, 2, (0.0, 0.05), solver=solver)
        assert 0.0 in res.excluded
        eps, vals = zip(*res.sequence)
        assert list(eps) == [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))

    def test_one_pass_evaluates_each_node_once(self, solvers, monkeypatch):
        solver = solvers("gasymov", n_max=3)
        ts = []
        inner = spc._projection_norms

        def counted(solver, nodes, ns):
            ts.extend(nodes)
            return inner(solver, nodes, ns)

        monkeypatch.setattr(spc, "_projection_norms", counted)
        integral_inverse_dn(solver.pot, 2, (0.0, 0.05), solver=solver)
        assert len(ts) == len(set(ts))
        assert len(ts) <= 450

    def test_estimate_bounds_error_against_fine_rule(self, solvers):
        # the narrow peaks of 1/|d_1| next to t = 0 and pi; a rule that
        # compares itself with itself used to accept 6.285910 here
        solver = solvers("asym", n_max=4)
        res = integral_inverse_dn(solver.pot, 1, (-PI + 1e-9, PI),
                                  solver=solver)
        # 1024-node composite Gauss-Legendre rule (64 panels x 16); the
        # integrand is even in t and the solver reflects -t off t
        half = 0.5 * PI / 32
        gx, gw = np.polynomial.legendre.leggauss(16)
        xs = ((np.arange(32) + 0.5)[:, None] * 2 * half
              + half * gx[None, :]).ravel()
        ws = np.tile(half * gw, 32)
        vals = 1.0 / _projection_norms(
            solver, np.concatenate([xs, -xs]), [1])[0][:, 0]
        ref = float(np.dot(np.concatenate([ws, ws]), vals))
        assert abs(res.value - ref) <= res.error <= 0.05 * res.value

    def test_rough_integrand_raises_with_estimates(self, solvers,
                                                   monkeypatch):
        solver = solvers("equal", n_max=4)
        monkeypatch.setattr(spc, "_projection_norms", lambda solver, ts, ns: (
            np.outer(1.1 + np.sin(211.0 * np.asarray(ts)), np.ones(len(ns))),
            None, None))
        with pytest.raises(QuadratureError) as info:
            integral_inverse_dn(solver.pot, 2, (-PI + 1e-9, PI),
                                solver=solver)
        trace = info.value.trace
        assert [eps for eps, _, _ in trace] == [1e-2, 1e-3, 1e-4, 1e-5,
                                                1e-6]
        assert all(est > 0.05 * val for _, val, est in trace)

    @pytest.mark.xfail(strict=True, reason=(
        "the divergent mass of 1/|d_2| near t = 0 carries the factorially "
        "small band-2 coupling constant (~9e-9), so the integral saturates "
        "at every reachable exclusion radius; >= 25% growth per decade over "
        "1e-2..1e-6 is unattainable at double precision"))
    def test_gasymov_growth_per_decade(self, solvers):
        solver = solvers("gasymov", n_max=3)
        res = integral_inverse_dn(solver.pot, 2, (0.0, 0.05), solver=solver)
        _, vals = zip(*res.sequence)
        assert all(b >= 1.25 * a for a, b in zip(vals[:-1], vals[1:]))
        assert res.divergence_flag


class TestDetection:
    def test_two_sided_small_product_clean(self):
        sing, ess = detect_singularities(MathieuPotential(1, 1), (0.5, 250.0),
                                         run_integrals=False)
        assert sing == [] and ess == []

    def test_one_sided_jordan_ladder(self):
        sing, ess = detect_singularities(MathieuPotential(0, 1), (0.5, 250.0),
                                         run_integrals=False)
        got = sorted(e.point.lambda_star.real for e in ess)
        want = sorted([(TWO_PI * n) ** 2 for n in (1, 2)]
                      + [(TWO_PI * n + PI) ** 2 for n in (0, 1, 2)])
        assert got == pytest.approx(want, abs=1e-5)
        for e in ess:
            assert e.geometric_multiplicity == 1
            assert e.cluster_size == 2

    @pytest.mark.parametrize("pot,window,builds", [
        (MathieuPotential(1, 1), (30.0, 50.0), 0),
        (MathieuPotential(0, 1), (30.0, 50.0), 1),
    ])
    def test_solver_built_only_for_an_ess(self, monkeypatch, pot, window,
                                          builds):
        calls = []
        make_solver = spc.make_solver

        def counting(pot, n_max, t_points=96):
            calls.append(n_max)
            return make_solver(pot, n_max, t_points)

        monkeypatch.setattr(spc, "make_solver", counting)
        _, ess = detect_singularities(pot, window)
        assert len(ess) == builds == len(calls)

    def test_endpoint_solves_at_the_solver_m(self, monkeypatch):
        # around (12 pi)^2 the solver of the ESS integrals takes M = 32
        # (stable_m for bands up to 8); the endpoint verdict runs on it
        pot = MathieuPotential(0, 1)
        c, h = (12 * PI) ** 2, 0.7 * 12 * PI
        ends, built = [], []
        real_end, real_make = flq.endpoint_spectrum, spc.make_solver

        def endpoint(pot, t, M):
            ends.append(M)
            return real_end(pot, t, M)

        def make_solver(*args):
            built.append(real_make(*args))
            return built[-1]

        monkeypatch.setattr(flq, "endpoint_spectrum", endpoint)
        monkeypatch.setattr(spc, "make_solver", make_solver)
        _, ess = detect_singularities(pot, (c - h, c + h))
        assert len(ess) == 1 and len(built) == 1
        assert ends and set(ends) == {built[0].M} == {32}

    def test_ess_integrals_share_their_nodes(self, monkeypatch):
        # (2 pi)^2 and (4 pi)^2 are ESS of the periodic family, bands 1 and
        # 2, whose integrals share the span (0, 0.05); (3 pi)^2 has the
        # antiperiodic one to itself.  Every integrand node is handed over
        # once, for all bands of its span, and an endpoint node is solved
        # at most once.
        pot = MathieuPotential(0, 1)
        solver = flq.BandSolver(pot, flq.track_curves(
            pot, flq.default_grid(96), range(-4, 5), M=16))
        nodes, solves = [], []
        inner, real_end = spc._projection_norms, flq.endpoint_spectrum

        def counted(solver, ts, ns):
            nodes.extend(abs(float(t)) for t in ts)
            before = len(solves)
            try:
                return inner(solver, ts, ns)
            finally:
                inside.append(len(solves) - before)

        def counted_end(pot, t, M):
            solves.append(t)
            return real_end(pot, t, M)

        inside = []
        monkeypatch.setattr(spc, "_projection_norms", counted)
        monkeypatch.setattr(flq, "endpoint_spectrum", counted_end)
        _, ess = detect_singularities(pot, (30.0, 170.0), solver=solver)
        periodic = sorted(abs(e.band_guess) for e in ess
                          if e.point.family == "periodic")
        assert periodic == [1, 2] and len(ess) == 3
        assert all(e.divergence_flag is not None for e in ess)
        assert len(nodes) == len(set(nodes))
        assert sum(inside) <= len(nodes)
        assert set(vars(solver)) == {"pot", "curves", "M"}

    def test_interior_collision_classified(self):
        sing, ess = detect_singularities(MathieuPotential(1, -1),
                                         (80.0, 95.0), run_integrals=False,
                                         im_halfwidth=3.0)
        assert len(sing) == 1
        assert sing[0].family == "interior"
        assert not sing[0].is_two_periodic
        assert ess == []


class TestRegions:
    def test_equal_moduli_collapse(self):
        reg = region_decomposition(MathieuPotential(1, 1), 3)
        assert reg.i4[0] == reg.i4[1]
        assert any("I4 collapses" in s for s in reg.notices)

    def test_asymmetric_nesting(self):
        reg = region_decomposition(MathieuPotential(1, 2), 3)
        assert 0.0 < reg.i1[1] < reg.i2[1] < reg.i4[1] <= reg.i3[1]
        assert reg.i4[1] < reg.i5[1]
        # boundaries in window units: eps/4, 5 eps/4 and |beta|
        assert reg.i2[1] == pytest.approx(5.0 * reg.i1[1], rel=1e-12)

    def test_cover_and_partition(self):
        reg = region_decomposition(MathieuPotential(1, 2), 4)
        assert reg.i1[0] == 0.0
        assert reg.i3[1] == pytest.approx(4.0 ** -3.0)
        assert reg.i1[1] == reg.i2[0]
        assert reg.i2[1] == reg.i3[0]
        assert reg.i4[1] == reg.i5[0]
        assert reg.i5[1] == reg.i3[1]

    def test_free_rejected(self):
        with pytest.raises(DegenerateProductError):
            region_decomposition(MathieuPotential(0, 0), 3)

    def test_one_sided_notice(self):
        reg = region_decomposition(MathieuPotential(0, 1), 3)
        assert any("zero" in s for s in reg.notices)


class TestClassification:
    def test_table(self):
        r = classify_operator(MathieuPotential(1, 1))
        assert r.asymptotically_spectral == "holds"
        assert r.expansion_form == ELEGANT

        r = classify_operator(MathieuPotential(2, 3))
        assert not r.modulus_equal
        assert r.asymptotically_spectral == "fails"
        assert r.expansion_form == ASYMPTOTICALLY_ELEGANT

        r = classify_operator(MathieuPotential(1, -1))
        assert r.asymptotically_spectral == "fails"
        assert r.diophantine.condition8 == "fails"
        assert r.diophantine.witness == (1, 1)
        assert any("not a spectral operator" in s for s in r.notes)

        r = classify_operator(MathieuPotential(0, 5))
        assert r.expansion_form == GASYMOV
        assert r.ess_at_infinity == "holds"
        assert r.asymptotically_spectral == "fails"

        r = classify_operator(MathieuPotential(2, 2))
        assert r.asymptotically_spectral == "holds"
        assert r.expansion_form == ASYMPTOTICALLY_ELEGANT

    def test_alpha_exact_input(self):
        r = classify_operator(MathieuPotential(1, 1),
                              alpha_input=Fraction(2, 7))
        assert r.asymptotically_spectral == "holds"
        r = classify_operator(MathieuPotential(1, 1),
                              alpha_input=Fraction(3, 7))
        assert r.asymptotically_spectral == "fails"

    def test_float_alpha_undecided(self):
        r = classify_operator(MathieuPotential(1, 1),
                              alpha_input=math.sqrt(2) - 1,
                              diophantine_bound=500)
        assert r.asymptotically_spectral == "undecided-float"

    def test_free_special_case(self):
        r = classify_operator(MathieuPotential(0, 0))
        assert r.modulus_equal
        assert r.asymptotically_spectral == "holds"
        assert r.expansion_form == GASYMOV
        assert r.ess_at_infinity == "fails"

    def test_self_adjoint_note(self):
        r = classify_operator(MathieuPotential(1 + 0.5j, 1 - 0.5j))
        assert any("self-adjoint" in s for s in r.notes)

    def test_ess_evidence_saturates(self, solvers):
        r = classify_operator(MathieuPotential(1, 1), ess_scan_nmax=2)
        assert r.ess_at_infinity == "fails"
        vals = r.ess_at_infinity_evidence["full_interval_integrals"]
        assert all(v < 10.0 for v in vals.values())

    def test_spectral_verdict_coheres_with_integrals(self, solvers):
        # a holds-verdict must not coexist with a divergence flag
        for name in ("equal", "sa"):
            solver = solvers(name, n_max=4)
            r = classify_operator(solver.pot)
            assert r.asymptotically_spectral == "holds"
            for n in (1, 2, 3):
                res = integral_inverse_dn(solver.pot, n, (-PI + 1e-9, PI),
                                          solver=solver)
                assert not res.divergence_flag

    def test_json_round_trip_fields(self):
        d = classify_operator(MathieuPotential(1, -1)).to_dict()
        for key in ("modulus_equal", "diophantine", "asymptotically_spectral",
                    "singularities", "ess", "ess_at_infinity",
                    "expansion_form"):
            assert key in d
        assert d["alpha_exact"] == "1"
