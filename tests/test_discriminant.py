import ast
import cmath
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import mathieuspec
from mathieuspec import (MathieuPotential, SimplenessError,
                         StepSizeUnderflowError, assemble, count_roots,
                         dn_via_wronskian, eigenvalues_at,
                         endpoint_spectrum, find_critical_points,
                         fundamental_solutions, predict_double)
import mathieuspec.discriminant as disc
from mathieuspec.cli import main

TWO_PI = 2.0 * math.pi
PI = math.pi
FREE = MathieuPotential(0, 0)


def test_package_exposes_its_submodules():
    # a re-exported function named like its module would shadow the module
    # as a package attribute, and ``import mathieuspec.x as m`` would then
    # give back the function
    tree = ast.parse(Path(mathieuspec.__file__).read_text(encoding="utf-8"))
    names = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert "discriminant" in names
    assert not [name for name in sorted(names) if not isinstance(
        getattr(mathieuspec, name), types.ModuleType)]


class TestFundamentalSolutions:
    @pytest.mark.parametrize("lam", [4 * PI ** 2, 7.3, 150.0, 2.0 + 5.0j])
    def test_free_closed_form(self, lam):
        mu = cmath.sqrt(lam)
        fd = fundamental_solutions(FREE, lam)
        assert fd.theta1 == pytest.approx(cmath.cos(mu), abs=1e-11)
        assert fd.phi1 == pytest.approx(cmath.sin(mu) / mu, abs=1e-11)
        assert fd.dphi1 == pytest.approx(cmath.cos(mu), abs=1e-11)
        assert fd.dtheta1 == pytest.approx(-mu * cmath.sin(mu), abs=1e-10)

    @pytest.mark.parametrize("pot,lam", [
        (MathieuPotential(1, 1), 55.5 + 3j),
        (MathieuPotential(2, -0.5j), -4.0),
        (MathieuPotential(1, 2), 700.0),
    ])
    def test_wronskian_certificate(self, pot, lam):
        fd = fundamental_solutions(pot, lam)
        assert fd.wronskian_defect <= 1e-10
        assert fd.est_error <= 1e-10 * (1.0 + abs(lam))

    def test_large_lambda_asymptote(self):
        # F approaches 2 cos(sqrt(lambda)) at the |mu|^-3 rate
        pot = MathieuPotential(1, 1)
        for lam in (100.0, 400.0, 2500.0, 10000.0):
            mu = math.sqrt(lam)
            gap = abs(fundamental_solutions(pot, lam).f - 2.0 * math.cos(mu))
            assert gap <= 10.0 * lam ** -1.5

    def test_envelope_guard(self):
        from mathieuspec import ValidationError
        with pytest.raises(ValidationError):
            fundamental_solutions(FREE, 1e9)


def _dop853(pot, lam):
    """The adaptive integration the Magnus oracle replaced, as reference.

    The fundamental pair and its first two lambda-variations as one
    12-component system (y_lam'' = (q - lambda) y_lam - y, and
    y_lamlam'' = (q - lambda) y_lamlam - 2 y_lam), with dense output.
    """
    a, b, lamc = pot.a, pot.b, complex(lam)

    def rhs(x, y):
        w = a * cmath.exp(-2j * PI * x) + b * cmath.exp(2j * PI * x) - lamc
        return np.array([y[1], w * y[0], y[3], w * y[2],
                         y[5], w * y[4] - y[0], y[7], w * y[6] - y[2],
                         y[9], w * y[8] - 2.0 * y[4],
                         y[11], w * y[10] - 2.0 * y[6]])

    y0 = np.zeros(12, dtype=complex)
    y0[0] = y0[3] = 1.0
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13,
                    atol=1e-14, dense_output=True)
    assert sol.success
    return sol


def _reference_values(sol):
    y = sol.y[:, -1]
    return {"theta1": y[0], "dtheta1": y[1], "phi1": y[2], "dphi1": y[3],
            "f": y[0] + y[3], "f_prime": y[4] + y[7],
            "f_second": y[8] + y[11]}


#: self-adjoint, equal-modulus, unequal-modulus (|a/b| = 2, 1e3, 1e-3,
#: |ab| up to 10) and one-sided potentials
ORACLE_POTS = [MathieuPotential(0.5 + 0.5j, 0.5 - 0.5j),
               MathieuPotential(1.5, -1.5), MathieuPotential(2, 2j),
               MathieuPotential(1, 2), MathieuPotential(100, 0.1),
               MathieuPotential(0.1, 100), MathieuPotential(0, 1),
               MathieuPotential(1, 0)]
ORACLE_LAMS = [0.5, 7.3, 50.3 + 2j, 258.0 - 6j, 4000.0 - 3j, 1e4]


def _disagreements(fd, ref):
    tol = max(10.0 * fd.est_error, 1e-12 * (1.0 + abs(fd.f)))
    return {k: abs(getattr(fd, k) - v) for k, v in ref.items()
            if abs(getattr(fd, k) - v) > tol}


class TestMagnusOracle:
    @pytest.mark.parametrize("pot", ORACLE_POTS)
    def test_matches_reference(self, pot):
        for lam in ORACLE_LAMS:
            fd = fundamental_solutions(pot, lam)
            ref = _reference_values(_dop853(pot, lam))
            assert _disagreements(fd, ref) == {}, lam
            assert fd.wronskian_defect <= 1e-12

    def test_matches_reference_near_1e6(self):
        pot, lam = MathieuPotential(1, 2), 1e6 + 0.5
        fd = fundamental_solutions(pot, lam)
        assert _disagreements(fd, _reference_values(_dop853(pot, lam))) == {}

    @pytest.mark.parametrize("pot", ORACLE_POTS)
    def test_estimate_bounds_doubled_run(self, pot):
        # the same Richardson-extrapolated oracle on twice the steps
        for lam in ORACLE_LAMS:
            fd = fundamental_solutions(pot, lam)
            lams = np.array([lam], dtype=complex)
            fine = disc._monodromy(pot, lams, 2 * fd.steps)
            y = fine + (fine - disc._monodromy(pot, lams, fd.steps)) \
                / disc._RICHARDSON
            assert abs(y[0, 0, 0] + y[0, 3, 0] + 2.0 - fd.f) <= fd.est_error

    def test_sixth_order(self):
        # the error of F without the Richardson step falls by about 2^6 per
        # doubling of the steps
        pot, lam = MathieuPotential(1, 2), 40 + 1j
        f_ref = _reference_values(_dop853(pot, lam))["f"]
        lams = np.array([lam], dtype=complex)
        errs = []
        for n in (32, 64, 128):
            y = disc._monodromy(pot, lams, n)
            errs.append(abs(y[0, 0, 0] + y[0, 3, 0] + 2.0 - f_ref))
        assert errs[0] >= 40.0 * errs[1] >= 1600.0 * errs[2]

    def test_batch_equals_scalar_bitwise(self):
        pot = MathieuPotential(1.5 - 0.2j, 0.7 + 1.1j)
        lams = [complex(x, y) for x in np.linspace(2.0, 300.0, 7)
                for y in (-6.0, 0.0, 2.5)]
        batch = disc._fundamental_batch(pot, lams, {})
        reverse = disc._fundamental_batch(pot, lams[::-1], {})[::-1]
        for lam, b, r in zip(lams, batch, reverse):
            assert fundamental_solutions(pot, lam) == b == r

    @pytest.mark.parametrize("pot,lam", [
        (MathieuPotential(1, 2), 150.0),
        (MathieuPotential(0.5 + 0.5j, 0.5 - 0.5j), 55.5 + 3j),
        (MathieuPotential(0, 1), 7.3),
        (MathieuPotential(100, 0.1), 1e4),
    ])
    def test_dense_matches_reference(self, pot, lam):
        fd = fundamental_solutions(pot, lam)
        dense = disc._dense_values(pot, fd.lam, fd.steps)
        yy = _dop853(pot, lam).sol(disc._NORM_XS)
        for got, want in ((dense[0], yy[0]), (dense[1], yy[2])):
            assert np.max(np.abs(got - want)) <= 1e-9 * (
                1.0 + np.max(np.abs(want)))


class TestEdgeInputs:
    @given(st.floats(-3.0, 8.0), st.floats(-PI, PI),
           st.floats(0.0, 50.0), st.floats(-PI, PI),
           st.floats(0.0, 50.0), st.floats(-PI, PI))
    @settings(max_examples=100, deadline=None)
    def test_certified_or_typed_error(self, log_lam, arg_lam, ma, arg_a,
                                      mb, arg_b):
        pot = MathieuPotential(cmath.rect(ma, arg_a), cmath.rect(mb, arg_b))
        lam = cmath.rect(10.0 ** log_lam, arg_lam)
        try:
            fd = fundamental_solutions(pot, lam)
        except StepSizeUnderflowError:
            return
        assert fd.wronskian_defect <= 1e-10
        assert math.isfinite(fd.est_error)
        assert disc._N_START <= fd.steps <= disc._N_CAP

    def test_step_cap_is_a_typed_error(self, monkeypatch, tmp_path, capsys):
        # (50, 50) near lambda = 10 needs more than the first 256 steps
        pot = MathieuPotential(50, 50)
        assert fundamental_solutions(pot, 10.0).steps > disc._N_START == 256
        monkeypatch.setattr(disc, "_N_CAP", disc._N_START)
        with pytest.raises(StepSizeUnderflowError):
            fundamental_solutions(pot, 10.0)
        rc = main(["singularities", "--a=50", "--b=50", "--window=5,15",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepSizeUnderflowError"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 6 (ODE side): with |b| = 1000 the monodromy at "
        "lambda = -6i loses about 1e-7 to rounding at every step count, "
        "so no run certifies and classify exits 2"))
    def test_extreme_coupling_certifies(self, tmp_path):
        rc = main(["classify", "--a=0.001", "--b=1000", "--window=0,100",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_lost_wronskian_is_a_typed_error(self):
        # F ~ cosh(100): rounding swamps det Y = 1
        with pytest.raises(StepSizeUnderflowError):
            fundamental_solutions(FREE, -1e4)


class TestDiscriminantDerivative:
    def test_free_chain_rule(self):
        for lam in (7.0, 80.0, 350.0):
            mu = math.sqrt(lam)
            fp = fundamental_solutions(FREE, lam).f_prime
            assert fp == pytest.approx(-math.sin(mu) / mu, abs=1e-11)

    def test_finite_difference_oracle(self):
        pot = MathieuPotential(1, 2)
        for lam in (33.0, 151.7):
            h = 1e-5 * (1 + abs(lam))
            fdiff = (fundamental_solutions(pot, lam + h).f
                     - fundamental_solutions(pot, lam - h).f) / (2 * h)
            fp = fundamental_solutions(pot, lam).f_prime
            assert abs(fp - fdiff) <= 1e-6 * abs(fdiff)

    def test_cauchy_riemann(self):
        # F is entire: d/d(Re) F = -i d/d(Im) F on a grid
        pot = MathieuPotential(0.7, 1.3j)
        h = 1e-5
        for lam in (20.0 + 1j, 95.0 - 2j):
            dre = (fundamental_solutions(pot, lam + h).f
                   - fundamental_solutions(pot, lam - h).f) / (2 * h)
            dim = (fundamental_solutions(pot, lam + 1j * h).f
                   - fundamental_solutions(pot, lam - 1j * h).f) / (2j * h)
            assert abs(dre - dim) <= 1e-6 * (1 + abs(dre))


class TestEigenvaluesAt:
    def test_free_simple_root(self):
        roots = eigenvalues_at(FREE, 1.0, (0.5, 2.0))
        assert len(roots) == 1
        assert roots[0].lam == pytest.approx(1.0, abs=1e-9)
        assert roots[0].f_residual <= 1e-10

    def test_cross_module_lowest(self):
        pot = MathieuPotential(1, 1)
        w = endpoint_spectrum(pot, 0.0, 20).lambdas
        lam0 = w[np.argmin(w.real)]
        roots = eigenvalues_at(pot, 0.0, (lam0.real - 2, lam0.real + 2))
        assert min(abs(r.lam - lam0) for r in roots) <= 1e-8 * (1 + abs(lam0))

    def test_double_root_flagged(self):
        roots = eigenvalues_at(MathieuPotential(0, 1), 0.0,
                               ((TWO_PI) ** 2 - 3, (TWO_PI) ** 2 + 3))
        assert len(roots) == 1
        assert roots[0].lam == pytest.approx((TWO_PI) ** 2, abs=1e-7)
        assert roots[0].is_critical

    def test_plain_sorted_list(self):
        roots = eigenvalues_at(MathieuPotential(1, 2), 0.7, (0.0, 120.0))
        assert type(roots) is list and len(roots) >= 3
        assert roots == sorted(roots, key=lambda r: (r.lam.real, r.lam.imag))

    def test_count_matches_matrix(self):
        pot = MathieuPotential(1, 2)
        t = 0.9
        window = (0.0, 180.0)
        w = sla.eigvals(assemble(pot, t, 24).to_dense())
        n_matrix = int(np.sum((w.real >= window[0]) & (w.real <= window[1])
                              & (np.abs(w.imag) < 6.0)))
        assert count_roots(pot, window, t=t) == n_matrix


class TestCriticalPoints:
    def test_free_band_edges(self):
        cps = find_critical_points(FREE, (1.0, 200.0), im_halfwidth=4.0)
        got = sorted(c.lambda_star.real for c in cps)
        want = [(PI * k) ** 2 for k in range(1, 5)]
        assert got == pytest.approx(want, abs=1e-6)
        for c in cps:
            assert c.is_two_periodic
            assert abs(abs(c.f_value) - 2.0) <= 1e-9

    def test_interior_degeneracy_location(self):
        # the antiperiodic collision of (1,-1) predicted near 9 pi^2
        pred = predict_double(MathieuPotential(1, -1), 1, "antiperiodic")
        offset = pred.t_value()
        cps = find_critical_points(MathieuPotential(1, -1), (80.0, 95.0),
                                   im_halfwidth=3.0)
        assert len(cps) == 1
        c = cps[0]
        assert abs(c.t_star.real - PI) == pytest.approx(offset, rel=0.05)
        assert abs(c.t_star.imag) <= 1e-9
        assert not c.is_two_periodic and c.family == "interior"

    def test_all_endpoint_eigenvalues_simple_small_product(self):
        # |ab| = 1 < 16/9: every gap extremum overshoots |F| = 2, i.e. its
        # quasimomentum is genuinely complex.  Beyond the third gap the
        # overshoot falls below double precision (the gap width decays
        # factorially), so the measurable window stops at 100.
        cps = find_critical_points(MathieuPotential(1, 1), (0.5, 100.0),
                                   im_halfwidth=5.0)
        assert len(cps) >= 3
        for c in cps:
            assert abs(c.f_value) > 2.0 + 1e-12 or abs(c.t_star.imag) > 1e-7

    def test_winding_refines_in_batches(self, monkeypatch):
        # the initial samples and then each round of midpoints are one
        # batch; the scalar path is not taken
        calls = []
        batch = disc._fundamental_batch

        def recorded(pot, lams, known):
            calls.append(len(lams))
            return batch(pot, lams, known)

        monkeypatch.setattr(disc, "_fundamental_batch", recorded)
        monkeypatch.setattr(disc, "fundamental_solutions", None)
        assert count_roots(MathieuPotential(1, 2), (0.5, 600.0)) == 7
        assert calls[0] == 4 * disc._SIDE_POINTS and len(calls) > 1

    def test_invariant_fprime_small(self):
        cps = find_critical_points(MathieuPotential(0, 1), (30.0, 100.0),
                                   im_halfwidth=4.0)
        for c in cps:
            fd = fundamental_solutions(MathieuPotential(0, 1), c.lambda_star)
            assert abs(fd.f_prime) <= 1e-9 * (1.0 + abs(fd.f_second))


@pytest.fixture
def integrated(monkeypatch):
    """Every lambda that ``_integrate`` certifies, in call order."""
    lams = []
    integrate = disc._integrate

    def recorded(pot, batch):
        lams.extend(batch)
        return integrate(pot, batch)

    monkeypatch.setattr(disc, "_integrate", recorded)
    return lams


class TestNothingKept:
    def test_repeated_search_integrates_again(self, integrated):
        pot = MathieuPotential(1, 2)
        find_critical_points(pot, (0.5, 60.0))
        first = list(integrated)
        find_critical_points(pot, (0.5, 60.0))
        assert first and integrated == first + first

    def test_no_module_level_store(self):
        def sizes():
            return {name: len(v) for name, v in vars(disc).items()
                    if not name.startswith("__")
                    and isinstance(v, (dict, list, set))}

        before = sizes()
        pot = MathieuPotential(0.3, 0.7)
        fundamental_solutions(pot, 5.0)
        find_critical_points(pot, (0.5, 30.0))
        eigenvalues_at(pot, 0.7, (0.0, 30.0))
        dn_via_wronskian(pot, 1, 0.7, (TWO_PI + 0.7) ** 2)
        assert sizes() == before
        # the one memo holds per-N step coefficients, not per-lambda results
        assert [name for name, v in vars(disc).items()
                if hasattr(v, "cache_info")] == ["_step_coeffs"]

    def test_search_integrates_each_lambda_once(self, integrated):
        # the default window of ``singularities --a 1 --b 2 --nmax 4``: its
        # box splits share edge samples with their parents
        find_critical_points(MathieuPotential(1, 2),
                             (0.5, (TWO_PI * 4.75) ** 2))
        assert len(integrated) == len(set(integrated)) > 0

    def test_critical_point_carries_its_data(self):
        pot = MathieuPotential(0, 1)
        cps = find_critical_points(pot, (30.0, 100.0), im_halfwidth=4.0)
        assert cps
        for c in cps:
            fd = fundamental_solutions(pot, c.lambda_star)
            assert (c.f_value, c.est_error) == (fd.f, fd.est_error)
            assert "est_error" not in c.to_dict()

    def test_detect_singularities_solves_nothing_more(self, integrated,
                                                      monkeypatch):
        from mathieuspec import spectrality
        search = spectrality.find_critical_points
        after_search = []

        def recorded(*args, **kwargs):
            out = search(*args, **kwargs)
            after_search.append((len(integrated), len(out)))
            return out

        monkeypatch.setattr(spectrality, "find_critical_points", recorded)
        singular, ess = spectrality.detect_singularities(
            MathieuPotential(0, 1), (30.0, 100.0), run_integrals=False)
        [(count, n_points)] = after_search
        assert n_points and ess
        assert len(integrated) == count

    def test_projection_reuses_its_polish(self, integrated):
        # lambda_n is already a root: one integration serves the polish,
        # the certificate and the node values
        d = dn_via_wronskian(FREE, 1, 0.8, (TWO_PI + 0.8) ** 2)
        assert d == pytest.approx(1.0, abs=1e-10)
        assert len(integrated) == 1


class TestPairingIdentity:
    @pytest.mark.parametrize("pot,t", [
        (MathieuPotential(1, 2), 0.7),
        (MathieuPotential(1, -1), 2.1),
        (MathieuPotential(1 + 0.5j, 1 - 0.5j), 1.3),
    ])
    def test_boundary_identity(self, pot, t):
        # (e^{it} - theta)(e^{-it} - theta) = -phi theta' at eigenvalues
        roots = eigenvalues_at(pot, t, (0.0, 120.0))
        assert roots
        for r in roots:
            fd = fundamental_solutions(pot, r.lam)
            lhs = (cmath.exp(1j * t) - fd.theta1) * (cmath.exp(-1j * t)
                                                     - fd.theta1)
            assert abs(lhs + fd.phi1 * fd.dtheta1) <= 1e-8


class TestWronskianProjection:
    def test_free_unit(self):
        for (n, t) in ((1, 0.8), (3, 2.0), (0, 1.1)):
            d = dn_via_wronskian(FREE, n, t, (TWO_PI * n + t) ** 2)
            assert d == pytest.approx(1.0, abs=1e-10)

    def test_self_adjoint_unit(self, solvers):
        solver = solvers("sa")
        for (n, t) in ((1, 0.4), (3, 1.1), (5, 2.8)):
            lam = solver.curves.value(n, t)
            d = dn_via_wronskian(solver.pot, n, t, lam)
            assert d == pytest.approx(1.0, abs=1e-6)

    def test_dual_method_consistency(self, solvers, dense_band):
        solver = solvers("asym")
        for (n, t) in ((6, 0.35), (4, 1.2), (2, 2.5)):
            primal, partner = dense_band(solver, t, n)
            lam, v, w = primal.lam, primal.coeffs, partner.coeffs
            d_vec = abs(np.vdot(w, v))
            d_wr = dn_via_wronskian(solver.pot, n, t, lam)
            assert abs(d_vec - d_wr) <= 0.05 * d_wr

    def test_two_periodic_asym_rejected(self):
        # at t = 0 the pair splitting of (1,2) band 6 sits far below the
        # reachable |F'| resolution; the closed formula must refuse
        with pytest.raises(SimplenessError):
            dn_via_wronskian(MathieuPotential(1, 2), 6, 0.0,
                             (TWO_PI * 6) ** 2)
