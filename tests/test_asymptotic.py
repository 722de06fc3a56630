import itertools
import math

import numpy as np
import pytest

from mathieuspec import (A_series, D_of, MathieuPotential, PoleProximityError,
                         ValidationError, a_series_term, antiperiodic_pair,
                         asymptotic_lambda, b_series_leading, b_series_term,
                         find_critical_points, periodic_pair, predict_double)
from mathieuspec.asymptotic import _denominator

TWO_PI = 2.0 * math.pi
PI = math.pi
FAMILIES = ("periodic", "antiperiodic")


def _walk_sum_reference(pot, n, lam, t, k, family, primed, closing):
    """Reference series term: every +-1 walk of length k, one at a time."""
    m = 2 * n if family == "periodic" else 2 * n + 1
    center = n + 1 if primed and family == "antiperiodic" else n
    forb = {0, -m} if primed else {0, m}
    q = {-1: pot.a, 1: pot.b}
    total = 0.0j
    for steps in itertools.product((-1, 1), repeat=k):
        part = 0
        coef = 1.0 + 0.0j
        denom = 1.0 + 0.0j
        ok = True
        for st in steps:
            part += st
            if part in forb:
                ok = False
                break
            coef *= q[st]
            if primed:
                freq = TWO_PI * (center + part) - t
            else:
                freq = TWO_PI * (center - part) + t
            denom *= _denominator(lam, freq)
        if not ok:
            continue
        if closing == "a":
            idx = -part
        else:
            idx = (-m - part) if primed else (m - part)
        if idx in (-1, 1):
            total += q[idx] * coef / denom
    return total


def _a_series_reference(pot, n, lam, t, k_max, family, primed):
    return sum(_walk_sum_reference(pot, n, lam, t, k, family, primed, "a")
               for k in range(1, k_max + 1, 2))


def _zone_point(rng, n, family):
    """A quasimomentum in the family's zone and a lambda near the band."""
    if family == "periodic":
        t = float(rng.uniform(0.0, 0.02))
    else:
        t = PI - float(rng.uniform(0.0, 0.02))
    lam = complex((TWO_PI * n + t) ** 2 + rng.uniform(-3.0, 3.0),
                  rng.uniform(-1.0, 1.0))
    return t, lam


class TestWalkSumsAgainstEnumeration:
    """The partial-sum pass against the walk-by-walk enumeration."""

    @pytest.mark.parametrize("which", ["random", "a=0", "b=0"])
    def test_terms_and_series(self, which):
        rng = np.random.default_rng({"random": 1, "a=0": 2, "b=0": 3}[which])
        for n in range(1, 7):
            for family in FAMILIES:
                for primed in (False, True):
                    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
                    if which == "a=0":
                        a = 0.0
                    elif which == "b=0":
                        b = 0.0
                    pot = MathieuPotential(a, b)
                    t, lam = _zone_point(rng, n, family)
                    for k in range(1, 10):
                        for got, closing in (
                                (a_series_term(pot, n, lam, t, k, family,
                                               primed), "a"),
                                (b_series_term(pot, n, lam, t, k, family,
                                               primed), "b")):
                            want = _walk_sum_reference(pot, n, lam, t, k,
                                                       family, primed,
                                                       closing)
                            assert got == pytest.approx(want, rel=1e-12,
                                                        abs=0)
                    got = A_series(pot, n, lam, t, 9, family, primed).value
                    want = _a_series_reference(pot, n, lam, t, 9, family,
                                               primed)
                    assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("primed", [False, True])
    def test_pole_at_reached_partial_sum(self, family, primed):
        # partial sums +-1 are reached by a first step: both raise, also
        # when a = 0 gives every walk through -1 zero weight
        n = 2
        t = 0.003 if family == "periodic" else PI - 0.003
        center = n + 1 if primed and family == "antiperiodic" else n
        for pot in (MathieuPotential(0.8 - 0.3j, 1.1 + 0.2j),
                    MathieuPotential(0, 1.1 + 0.2j)):
            for part in (1, -1):
                freq = (TWO_PI * (center + part) - t if primed
                        else TWO_PI * (center - part) + t)
                lam = freq ** 2 + 1e-7 * (0.6 + 0.8j)
                with pytest.raises(PoleProximityError):
                    _walk_sum_reference(pot, n, lam, t, 5, family, primed,
                                        "a")
                with pytest.raises(PoleProximityError):
                    a_series_term(pot, n, lam, t, 5, family, primed)
                with pytest.raises(PoleProximityError):
                    b_series_term(pot, n, lam, t, 5, family, primed)
                with pytest.raises(PoleProximityError):
                    A_series(pot, n, lam, t, 9, family, primed)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("primed", [False, True])
    def test_pole_only_behind_forbidden_sum(self, family, primed):
        # the forbidden sum itself and the sum one step past it are reached
        # only by walks already dropped: neither path raises
        pot = MathieuPotential(0.8 - 0.3j, 1.1 + 0.2j)
        n = 2
        m = 2 * n if family == "periodic" else 2 * n + 1
        t = 0.003 if family == "periodic" else PI - 0.003
        center = n + 1 if primed and family == "antiperiodic" else n
        for part in ((0, -m, -m - 1) if primed else (0, m, m + 1)):
            freq = (TWO_PI * (center + part) - t if primed
                    else TWO_PI * (center - part) + t)
            lam = complex(freq ** 2)
            for k in range(1, 10):
                for closing, fn in (("a", a_series_term),
                                    ("b", b_series_term)):
                    want = _walk_sum_reference(pot, n, lam, t, k, family,
                                               primed, closing)
                    got = fn(pot, n, lam, t, k, family, primed)
                    assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestLeadingCouplingTerm:
    @pytest.mark.parametrize("b", [1.0, 2.0, 1 + 1j])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_closed_form_identity(self, b, n):
        # the finite product at lambda = (2 pi n)^2, t = 0 collapses to the
        # decay constant, in log magnitude and phase
        pot = MathieuPotential(0.7, b)
        sv = b_series_leading(pot, n, (TWO_PI * n) ** 2, 0.0)
        beta, _ = periodic_pair(pot, n)
        assert abs(sv.log.log_magnitude - beta.log_magnitude) <= 1e-12 * max(
            1.0, abs(beta.log_magnitude))
        assert abs(sv.log.phase - beta.phase) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_antiperiodic_identities(self, n):
        pot = MathieuPotential(1.5 - 0.5j, 0.7 + 0.2j)
        lam = (TWO_PI * n + PI) ** 2
        sv = b_series_leading(pot, n, lam, PI, family="antiperiodic")
        svp = b_series_leading(pot, n, lam, PI, family="antiperiodic",
                               primed=True)
        tb, ta = antiperiodic_pair(pot, n)
        assert abs(sv.log.log_magnitude - tb.log_magnitude) <= 1e-11
        assert abs(sv.log.phase - tb.phase) <= 1e-11
        assert abs(svp.log.log_magnitude - ta.log_magnitude) <= 1e-11
        assert abs(svp.log.phase - ta.phase) <= 1e-11

    def test_zero_amplitude(self):
        sv = b_series_leading(MathieuPotential(1, 0), 3, 350.0, 0.01)
        assert sv.value == 0 and sv.log.is_zero

    def test_near_band_perturbation(self):
        # direct product evaluation drifts slowly off the closed form
        pot = MathieuPotential(1, 1)
        base = b_series_leading(pot, 3, (TWO_PI * 3) ** 2, 0.0).value
        moved = b_series_leading(pot, 3, (TWO_PI * 3) ** 2 + 0.001, 0.0).value
        assert abs(moved / base - 1.0) <= 0.01

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            b_series_leading(MathieuPotential(1, 1), 2,
                             (TWO_PI * 1) ** 2 + 1e-8, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_walk_enumeration_matches_product(self, n):
        pot = MathieuPotential(1, 2)
        lam = (TWO_PI * n) ** 2 + 0.3
        t = 0.005
        assert b_series_term(pot, n, lam, t, 2 * n - 1) == pytest.approx(
            b_series_leading(pot, n, lam, t).value, rel=1e-12)
        assert b_series_term(pot, n, lam, t, 2 * n - 1, primed=True) == \
            pytest.approx(b_series_leading(pot, n, lam, t, primed=True).value,
                          rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_subleading_terms_vanish(self, n):
        # below the leading order, and at even order, everything is zero
        pot = MathieuPotential(1, 2)
        lam = (TWO_PI * n) ** 2 + 0.3
        for k in list(range(1, 2 * n - 1)) + [2 * n]:
            assert b_series_term(pot, n, lam, 0.002, k) == 0


class TestDiagonalSeries:
    def test_even_orders_vanish(self):
        pot = MathieuPotential(1.2, -0.8)
        for k in (2, 4, 6):
            assert a_series_term(pot, 5, (TWO_PI * 5) ** 2, 0.01, k) == 0

    def test_two_term_formula(self):
        pot = MathieuPotential(1, 1)
        n, lam, t = 10, (TWO_PI * 10) ** 2, 0.0
        got = a_series_term(pot, n, lam, t, 1)
        want = pot.ab / (lam - (TWO_PI * 9) ** 2) \
            + pot.ab / (lam - (TWO_PI * 11) ** 2)
        assert got == pytest.approx(want, rel=1e-14)
        assert abs(got) <= 3e-4

    def test_one_sided_potential_kills_series(self):
        pot = MathieuPotential(0, 1.7)
        for k in (1, 3, 5):
            assert a_series_term(pot, 4, (TWO_PI * 4) ** 2, 0.01, k) == 0
        sv = A_series(pot, 4, (TWO_PI * 4) ** 2, 0.01)
        assert sv.value == 0

    def test_series_tail_decays(self):
        sv = A_series(MathieuPotential(1, 1), 8, (TWO_PI * 8) ** 2, 0.001,
                      k_max=9)
        assert sv.tail_bound <= abs(sv.value) * 1e-2

    def test_primed_equals_plain_at_zero(self):
        # the walk bijection forces A = A' at t = 0 (so C vanishes there)
        pot = MathieuPotential(1.3, 0.4 - 0.9j)
        lam = (TWO_PI * 6) ** 2 + 0.1
        plain = A_series(pot, 6, lam, 0.0).value
        primed = A_series(pot, 6, lam, 0.0, primed=True).value
        assert plain == pytest.approx(primed, rel=1e-12)


class TestBranchDiscriminant:
    def test_window_dominated(self):
        # away from the collision scale D is the squared window
        pot = MathieuPotential(1, 1)
        n, t = 5, 1e-4
        lam = (TWO_PI * n) ** 2
        d = D_of(pot, n, lam, t)
        assert abs(d.d_value / (4 * PI * n * t) ** 2 - 1.0) <= 1e-2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_product_dominated_at_zero(self, n):
        pot = MathieuPotential(1, 1)
        d = D_of(pot, n, (TWO_PI * n) ** 2, 0.0)
        beta, alpha = periodic_pair(pot, n)
        want = (beta * alpha).value()
        assert abs(d.d_value / want - 1.0) <= 1e-2

    def test_split_factor_product(self):
        pot = MathieuPotential(1, 1)
        d = D_of(pot, 4, (TWO_PI * 4) ** 2, 1e-5)
        beta, alpha = periodic_pair(pot, 4)
        assert abs(d.e_plus * d.e_minus / (beta * alpha).value() - 1.0) <= 0.1
        em, ep = d.branch(-1)
        assert em == -d.e_plus and ep == -d.e_minus


class TestPredictions:
    def test_antiperiodic_negative_product(self):
        pred = predict_double(MathieuPotential(1, -1), 1, "antiperiodic")
        want = (8.0 * PI ** 2) ** -2 / (6.0 * PI)
        assert pred.t_value() == pytest.approx(want, rel=1e-10)
        assert pred.validity == "ok"

    def test_positive_product_no_real_collision(self):
        for n in (1, 3, 6):
            pred = predict_double(MathieuPotential(1, 1), n, "periodic")
            assert pred.t_pred is None
            pred2 = predict_double(MathieuPotential(2, 2), n, "periodic")
            assert pred2.t_pred is None

    def test_scaling_with_amplitude(self):
        # same phase verdict, larger magnitudes
        p1 = predict_double(MathieuPotential(1, -1), 2, "antiperiodic")
        p2 = predict_double(MathieuPotential(2, -2), 2, "antiperiodic")
        assert p1.t_pred is not None and p2.t_pred is not None
        assert p2.t_value() > p1.t_value()

    def test_constant_sensitivity(self):
        # deeper bands tolerate the whole scan; at n = 1 the large constant
        # dominates the correction factor and the prediction degrades
        vals = [predict_double(MathieuPotential(1, -1), 4, "antiperiodic",
                               c_constant=c).t_value() for c in (0.0, 1.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] <= 6.0 * vals[0]
        broke = predict_double(MathieuPotential(1, -1), 1, "antiperiodic",
                               c_constant=10.0)
        assert broke.t_pred is None
        assert "constant-dominated" in broke.validity

    def test_outside_validity_flag(self):
        pred = predict_double(MathieuPotential(1, -1), 0, "antiperiodic")
        assert pred.validity == "outside asymptotic validity"

    def test_prediction_matches_critical_point(self):
        # reality check against the ODE engine for the reachable collision
        pred = predict_double(MathieuPotential(1, -1), 1, "antiperiodic")
        cps = find_critical_points(MathieuPotential(1, -1), (80.0, 95.0),
                                   im_halfwidth=3.0)
        assert len(cps) == 1
        measured = abs(cps[0].t_star.real - PI)
        assert abs(measured - pred.t_value()) <= 0.25 * pred.t_value()


class TestAsymptoticLambda:
    def test_free_branches_exact(self):
        free = MathieuPotential(0, 0)
        assert asymptotic_lambda(free, 3, 0.01, 2) == pytest.approx(
            (TWO_PI * 3 + 0.01) ** 2, abs=1e-10)
        assert asymptotic_lambda(free, 3, 0.01, 1) == pytest.approx(
            (TWO_PI * 3 - 0.01) ** 2, abs=1e-10)
        # antiperiodic zone: branch 1 continues the band, branch 2 follows
        # the mirror lambda_{-n-1}(t) = (2 pi (n+1) - t)^2
        s = 0.005
        assert asymptotic_lambda(free, 2, PI - s, 1) == pytest.approx(
            (TWO_PI * 2 + PI - s) ** 2, abs=1e-9)
        assert asymptotic_lambda(free, 2, PI - s, 2) == pytest.approx(
            (TWO_PI * 2 + PI + s) ** 2, abs=1e-9)

    def test_matches_engine_near_zero(self, solvers):
        solver = solvers("asym")
        lam_engine = solver.curves.value(6, 0.01)
        lam_formula = asymptotic_lambda(solver.pot, 6, 0.01, 2)
        assert abs(lam_formula - lam_engine) <= 1e-3 * abs(lam_engine)

    def test_mirror_branch_near_zero(self, solvers):
        solver = solvers("asym")
        lam_engine = solver.curves.value(-6, 0.01)
        lam_formula = asymptotic_lambda(solver.pot, 6, 0.01, 1)
        assert abs(lam_formula - lam_engine) <= 1e-3 * abs(lam_engine)

    def test_interior_leading_term(self, solvers):
        solver = solvers("asym")
        lam_engine = solver.curves.value(6, PI / 2)
        assert abs(asymptotic_lambda(solver.pot, 6, PI / 2, 2)
                   - lam_engine) <= 1.0

    def test_branch_consistency_along_grid(self, solvers):
        # exactly one branch matches each tracked curve, with no swaps
        solver = solvers("asym")
        ts = [0.004, 0.008, 0.016]
        for n, j in ((5, 2), (-5, 1)):
            band = abs(n)
            for t in ts:
                lam_engine = solver.curves.value(n, t)
                mine = asymptotic_lambda(solver.pot, band, t, j)
                other = asymptotic_lambda(solver.pot, band, t, 3 - j)
                assert abs(mine - lam_engine) < abs(other - lam_engine)

    def test_bad_branch_rejected(self):
        with pytest.raises(ValidationError):
            asymptotic_lambda(MathieuPotential(1, 1), 3, 0.01, 0)

    def test_comparison_report(self, solvers):
        from mathieuspec.asymptotic import comparison_csv, comparison_rows
        solver = solvers("asym")
        rows = comparison_rows(solver.pot, [3, -3], [0.01, PI / 2],
                               solver.curves.value)
        assert len(rows) == 4
        for (n, t, formula, engine, abs_err, rel_err, branch) in rows:
            if t < 0.02:
                assert rel_err <= 1e-3
        text = comparison_csv(rows)
        header = text.splitlines()[0]
        assert header == "n,t,formula_value,engine_value,abs_err,rel_err,branch"
        assert len(text.splitlines()) == 5
