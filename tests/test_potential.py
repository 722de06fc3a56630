import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieuspec import (DegenerateProductError, LogComplex, MathieuPotential,
                         ValidationError, alpha_of, antiperiodic_pair,
                         asymptotic_constants, check_diophantine,
                         format_complex, parse_complex, parse_rational,
                         periodic_pair, snap_rational)
from mathieuspec.potential import _float_scan

TWO_PI = 2.0 * math.pi


class TestAlpha:
    def test_negative_real_product(self):
        assert alpha_of(MathieuPotential(1, -1)) == pytest.approx(1.0)

    def test_positive_real_product(self):
        assert alpha_of(MathieuPotential(2, 2)) == 0.0

    def test_imaginary_product(self):
        assert alpha_of(MathieuPotential(1, 1j)) == pytest.approx(0.5)

    def test_zero_product_raises(self):
        with pytest.raises(DegenerateProductError):
            alpha_of(MathieuPotential(0, 3))


class TestDecayConstants:
    def test_first_coupling_constant(self):
        # b=2, n=1: 2^2 / (2 pi)^2 = 1/pi^2
        beta, _ = periodic_pair(MathieuPotential(1, 2), 1)
        assert beta.value().real == pytest.approx(1.0 / math.pi ** 2, rel=1e-14)
        assert beta.phase == 0.0

    def test_zero_amplitude(self):
        beta, alpha = periodic_pair(MathieuPotential(1, 0), 3)
        assert beta.is_zero and beta.value() == 0
        assert not alpha.is_zero

    def test_antiperiodic_product_value(self):
        # (1,-1), n=1: product = (ab)^3 / ((2 pi)^2 2!)^4 = -(8 pi^2)^-4
        tb, ta = antiperiodic_pair(MathieuPotential(1, -1), 1)
        prod = (tb * ta).value()
        want = -((8.0 * math.pi ** 2) ** -4)
        assert prod.real == pytest.approx(want, rel=1e-13)
        assert abs(prod.imag) <= 1e-20

    @pytest.mark.parametrize("pot", [MathieuPotential(1.5, 1.5j),
                                     MathieuPotential(0.3 - 1j, -0.7)])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_product_phases(self, pot, n):
        c = asymptotic_constants(pot, n)
        arg_ab = cmath.phase(pot.ab)
        got = (c.beta_n * c.alpha_n).phase
        want = math.remainder(2 * n * arg_ab, TWO_PI)
        assert abs(math.remainder(got - want, TWO_PI)) < 1e-10
        got_t = (c.tilde_beta_n * c.tilde_alpha_n).phase
        want_t = math.remainder((2 * n + 1) * arg_ab, TWO_PI)
        assert abs(math.remainder(got_t - want_t, TWO_PI)) < 1e-10

    @pytest.mark.parametrize("n", range(1, 10))
    def test_equal_moduli_match(self, n):
        c = asymptotic_constants(MathieuPotential(1 + 1j, 1 - 1j), n)
        assert c.beta_n.log_magnitude == pytest.approx(
            c.alpha_n.log_magnitude, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_consecutive_ratio(self, n):
        # |beta_n / beta_{n+1}| = |b|^-2 ((2 pi)^2 (2n)(2n+1))^2 exactly in logs
        pot = MathieuPotential(0, 1.7)
        b_n, _ = periodic_pair(pot, n)
        b_n1, _ = periodic_pair(pot, n + 1)
        got = b_n.log_magnitude - b_n1.log_magnitude
        want = (-2.0 * math.log(1.7)
                + 2.0 * (2.0 * math.log(TWO_PI)
                         + math.log(2 * n) + math.log(2 * n + 1)))
        assert got == pytest.approx(want, rel=1e-13)

    def test_epsilon_is_geometric_mean(self):
        c = asymptotic_constants(MathieuPotential(0.5, 3), 4)
        assert c.epsilon_n.log_magnitude == pytest.approx(
            0.5 * (c.alpha_n.log_magnitude + c.beta_n.log_magnitude), abs=1e-12)
        assert c.epsilon_n.phase == 0.0


def brute_force_odd_hit(alpha: Fraction, q_cap: int):
    """Exhaustive search for q <= q_cap with q*alpha an odd integer."""
    for q in range(1, q_cap + 1):
        val = alpha * q
        if val.denominator == 1 and val.numerator % 2 != 0:
            return q, (val.numerator + 1) // 2
    return None


class TestDiophantine:
    def test_alpha_one_fails(self):
        v = check_diophantine(Fraction(1))
        assert v.condition8 == "fails"
        assert v.witness == (1, 1)

    def test_alpha_zero_holds(self):
        v = check_diophantine(Fraction(0))
        assert v.condition8 == "holds"
        assert v.condition100 == "holds" and v.condition104 == "holds"

    def test_alpha_half_fails_with_witness(self):
        # oracle: exhaustive enumeration over q, p <= 10
        hits = [(q, p) for q in range(1, 11) for p in range(1, 11)
                if Fraction(1, 2) * q == 2 * p - 1]
        assert hits[0] == (2, 1)
        v = check_diophantine(Fraction(1, 2))
        assert v.condition8 == "fails"
        assert v.witness == (2, 1)

    def test_rational_never_undecided(self):
        for frac in (Fraction(3, 7), Fraction(-2, 9), Fraction(5, 6)):
            v = check_diophantine(frac)
            assert v.condition8 in ("holds", "fails")
            assert v.rational_input == frac

    def test_brute_force_agreement(self):
        # every irreducible m/q with q <= 50 vs enumeration to 4q
        for q in range(1, 51):
            for m in range(-q, q + 1):
                if math.gcd(abs(m), q) != 1:
                    continue
                alpha = Fraction(m, q)
                v = check_diophantine(alpha)
                brute = brute_force_odd_hit(alpha, 4 * q)
                assert (v.condition8 == "fails") == (brute is not None), alpha

    def test_parity_rule(self):
        assert check_diophantine(Fraction(2, 5)).condition8 == "holds"
        assert check_diophantine(Fraction(3, 5)).condition8 == "fails"
        assert check_diophantine(Fraction(-1, 2)).condition8 == "fails"

    def test_conditions_100_104_split(self):
        # odd numerator: even denominator kills (100), odd kills (104)
        v = check_diophantine(Fraction(1, 2))
        assert v.condition100 == "fails" and v.condition104 == "holds"
        v = check_diophantine(Fraction(1, 3))
        assert v.condition100 == "holds" and v.condition104 == "fails"

    def test_float_path_undecided(self):
        v = check_diophantine(math.sqrt(2) - 1, search_bound=2000)
        assert v.condition8 == "undecided-float"
        assert v.float_min is not None and v.float_min < 0.5
        assert v.witness is not None
        assert len(v.decay_profile) >= 2
        qs = [q for q, _ in v.decay_profile]
        assert qs == sorted(qs)

    def test_float_bound_cap(self):
        with pytest.raises(ValidationError):
            check_diophantine(0.123, search_bound=2_000_000)

    def test_snap(self):
        assert snap_rational(0.5) == Fraction(1, 2)
        assert snap_rational(1.0) == Fraction(1)
        assert snap_rational(0.123456789) is None

    def test_float_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                check_diophantine(bad)


def _loop_float_scan(alpha, search_bound, step, start):
    """Reference scan: one q at a time, the candidates as (dist, p) tuples."""
    x = abs(alpha)
    best = math.inf
    witness = None
    profile = []
    q = start
    while q <= search_bound:
        v = q * x
        p = max(1, math.floor((v + 1.0) / 2.0))
        dist, pick = min((abs(v - (2 * pp - 1)), pp) for pp in (p, p + 1))
        if dist < best:
            best = dist
            witness = (q, pick)
            profile.append((q, q * dist))
        q += step
    return best, witness, profile


class TestFloatScan:
    FAMILIES = ((1, 1), (2, 2), (2, 3))

    def _same(self, alpha, bound):
        for step, start in self.FAMILIES:
            got = _float_scan(alpha, bound, step, start)
            want = _loop_float_scan(alpha, bound, step, start)
            # the verdict JSON is built from these: equal bytes, not just
            # equal values
            assert json.dumps(got) == json.dumps(want)

    def test_random_alphas(self):
        rng = np.random.default_rng(7)
        for alpha in rng.uniform(-1.0, 1.0, 40):
            self._same(float(alpha), 3000)

    def test_ties_and_rationals(self):
        # exact rationals put q|alpha| on even integers, where both odd
        # neighbours tie and the smaller p must win
        for alpha in (0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 0.2, 1 / 3, 2 / 3,
                      0.75, 3 / 7, -5 / 8):
            self._same(alpha, 3000)

    def test_full_bound(self):
        self._same(math.sqrt(2) - 1, 100_000)
        self._same(-0.3183098861837907, 100_000)

    def test_empty_family(self):
        assert _float_scan(0.3, 1, 2, 2) == (math.inf, None, [])
        assert _loop_float_scan(0.3, 1, 2, 2) == (math.inf, None, [])


class TestLogComplex:
    @given(st.complex_numbers(min_magnitude=1e-150, max_magnitude=1e150,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, z):
        back = LogComplex.from_complex(z).value()
        assert abs(back - z) <= 1e-12 * abs(z)

    def test_zero(self):
        assert LogComplex.from_complex(0).is_zero
        assert LogComplex.zero().value() == 0

    @given(st.complex_numbers(min_magnitude=1e-30, max_magnitude=1e30,
                              allow_nan=False, allow_infinity=False),
           st.complex_numbers(min_magnitude=1e-30, max_magnitude=1e30,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_multiplication(self, z1, z2):
        prod = (LogComplex.from_complex(z1) * LogComplex.from_complex(z2)).value()
        assert abs(prod - z1 * z2) <= 1e-10 * abs(z1 * z2)

    def test_phase_wrapping(self):
        lc = LogComplex(0.0, 3 * math.pi)
        assert -math.pi < lc.phase <= math.pi


class TestLiterals:
    @pytest.mark.parametrize("text,value", [
        ("1.5-0.25i", 1.5 - 0.25j),
        ("2", 2.0 + 0j),
        ("-3.5e-2", -0.035 + 0j),
        ("0+1i", 1j),
        ("1e2-3e-1i", 100 - 0.3j),
    ])
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("bad", ["i", "1+i", "abc", "1 + 2j", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_complex(bad)

    @given(st.floats(-1e12, 1e12, allow_nan=False),
           st.floats(-1e12, 1e12, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, re, im):
        z = complex(re, im)
        assert parse_complex(format_complex(z)) == z

    def test_rational(self):
        assert parse_rational("3/7") == Fraction(3, 7)
        assert parse_rational("-2/4") == Fraction(-1, 2)
        assert parse_rational("5") == Fraction(5)
        with pytest.raises(ValidationError):
            parse_rational("3/0")
        with pytest.raises(ValidationError):
            parse_rational("x/2")


class TestPotential:
    def test_adjoint(self):
        pot = MathieuPotential(1 + 2j, 3 - 1j)
        adj = pot.adjoint()
        assert adj.a == (3 + 1j) and adj.b == (1 - 2j)
        assert adj.adjoint() == pot

    def test_self_adjoint_detection(self):
        assert MathieuPotential(1 + 0.5j, 1 - 0.5j).is_self_adjoint
        assert not MathieuPotential(1, 2).is_self_adjoint
        assert MathieuPotential(0, 0).is_self_adjoint

    def test_rotation_keeps_product(self):
        pot = MathieuPotential(1.3, -0.4 + 1j)
        rot = pot.rotated(0.37)
        assert rot.ab == pytest.approx(pot.ab, rel=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            MathieuPotential(float("nan"), 1)
