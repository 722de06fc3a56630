"""Perturbation series and closed forms for the band-edge eigenvalue pairs.

The two-term potential couples only nearest Fourier neighbors, so every
series term sums walks with steps +-1 whose partial sums must avoid the
band's own two frequencies.  A walk's weight depends only on its steps and
partial sums, so the sum runs over partial sums, not walks: one pass gives
every order k <= k_max in O(k_max^2).  The single leading coupling term is
an exact finite product evaluated in log-scale because its value decays
like ((2n-1)!)^-2.

Conventions for the two families:

  periodic (near t = 0):  window w = 4 pi n t, mirror index -n,
      forbidden partial sums {0, 2n} (plain) and {0, -2n} (primed);
  antiperiodic (near t = pi):  w = 2 pi (2n+1)(t - pi), mirror -n-1,
      forbidden {0, 2n+1} / {0, -(2n+1)}, and the primed denominators
      are centered at n+1 (the mirror frequency is -2 pi (n+1) + t).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional

from .errors import PoleProximityError, ValidationError
from .potential import (LogComplex, MathieuPotential, T_VALID,
                        antiperiodic_pair, periodic_pair)

TWO_PI = 2.0 * math.pi

_POLE_TOL = 1e-6


@dataclass
class SeriesValue:
    """A truncated series (or finite product) with its tail diagnostic."""

    value: complex
    k_max: int
    tail_bound: float
    log: Optional[LogComplex] = None


@dataclass
class DTerm:
    """The branch discriminant D = (w + C)^2 + B B' and its split factors.

    ``e_plus``/``e_minus`` are s*sqrt(D) +- (w + C) for the stored branch
    s; the opposite branch negates and swaps them.  Their product equals
    B B' identically, which approximates the coupling-constant product up
    to the reported relative defect ``ee_defect``.
    """

    d_value: complex
    c_value: complex
    e_minus: complex
    e_plus: complex
    s_branch: int
    w_value: complex
    bbp_value: complex
    ee_defect: Optional[float]

    def branch(self, s: int):
        """(E_-, E_+) for s = +1 or -1."""
        if s == self.s_branch:
            return self.e_minus, self.e_plus
        return -self.e_plus, -self.e_minus


def _windows(family: str, n: int, t: float):
    if family == "periodic":
        return 4.0 * math.pi * n * t
    return TWO_PI * (2 * n + 1) * (t - math.pi)


def _check_family(family: str):
    if family not in ("periodic", "antiperiodic"):
        raise ValidationError(f"unknown family {family!r}")


def _denominator(lam: complex, freq: float) -> complex:
    d = lam - freq * freq
    if abs(d) < _POLE_TOL:
        raise PoleProximityError(
            f"lambda within {_POLE_TOL} of the pole at {freq * freq:.6g}")
    return d


def b_series_leading(pot: MathieuPotential, n: int, lam: complex, t: float,
                     family: str = "periodic",
                     primed: bool = False) -> SeriesValue:
    """The exact leading coupling term as a log-scale finite product.

    periodic:      b^{2n}   prod_{s=1}^{2n-1} (lam - (2 pi (n-s) + t)^2)^-1
    antiperiodic:  b^{2n+1} prod_{s=1}^{2n}   (lam - (2 pi (n-s) + t)^2)^-1
    and the primed variants with a-powers, -t, and (antiperiodic only) the
    product centered at n+1.
    """
    _check_family(family)
    if n < 1:
        raise ValidationError("leading coupling term needs n >= 1")
    amp = pot.a if primed else pot.b
    if amp == 0:
        return SeriesValue(value=0.0j, k_max=0, tail_bound=0.0,
                           log=LogComplex.zero())
    if family == "periodic":
        k = 2 * n - 1
        power = 2 * n
        center = n
    else:
        k = 2 * n
        power = 2 * n + 1
        center = n + 1 if primed else n
    sgn_t = -t if primed else t
    acc = LogComplex(power * math.log(abs(amp)), power * cmath.phase(amp))
    for s in range(1, k + 1):
        freq = TWO_PI * (center - s) + sgn_t
        acc = acc / LogComplex.from_complex(_denominator(lam, freq))
    return SeriesValue(value=acc.value(), k_max=k, tail_bound=0.0, log=acc)


def _walk_terms(pot: MathieuPotential, n: int, lam: complex, t: float,
                k_max: int, family: str, primed: bool,
                closing: str) -> List[complex]:
    """Terms k = 0..k_max of a walk series, by one pass over partial sums.

    ``ends`` maps each partial sum to the summed weight (q-steps over
    denominators) of the admissible walks of the current length ending
    there; a walk drops out at its first forbidden partial sum.  The pole
    guard sees every partial sum that a walk reaches, zero weight or not.
    ``closing`` picks the final multiplicand: 'a' for the diagonal series
    (q at -Sigma) or 'b' for the coupling series (q at mirror-Sigma).
    """
    if k_max < 0:
        raise ValidationError("series order k must be >= 0")
    m = 2 * n if family == "periodic" else 2 * n + 1
    center = n + 1 if primed and family == "antiperiodic" else n
    shift = center if primed else -center  # +-freq = 2 pi (Sigma + shift) - t
    forb = {0, -m} if primed else {0, m}
    mirror = 0 if closing == "a" else (-m if primed else m)
    q = {-1: pot.a, 1: pot.b}
    inv_denom = {}
    ends = {0: 1.0 + 0.0j}
    terms = []
    for k in range(k_max + 1):
        if k:
            nxt = {}
            for part, weight in ends.items():
                for st in (-1, 1):
                    s = part + st
                    if s in forb:
                        continue
                    if s not in inv_denom:
                        inv_denom[s] = 1.0 / _denominator(
                            lam, TWO_PI * (s + shift) - t)
                    nxt[s] = nxt.get(s, 0.0j) + weight * q[st] * inv_denom[s]
            ends = nxt
        terms.append(q[1] * ends.get(mirror - 1, 0.0j)
                     + q[-1] * ends.get(mirror + 1, 0.0j))
    return terms


def a_series_term(pot: MathieuPotential, n: int, lam: complex, t: float,
                  k: int, family: str = "periodic",
                  primed: bool = False) -> complex:
    """The k-th diagonal series term; vanishes structurally for even k."""
    _check_family(family)
    if k % 2 == 0:
        return 0.0j
    return _walk_terms(pot, n, lam, t, k, family, primed, closing="a")[k]


def b_series_term(pot: MathieuPotential, n: int, lam: complex, t: float,
                  k: int, family: str = "periodic",
                  primed: bool = False) -> complex:
    """The k-th coupling series term summed over walks (spot-check use)."""
    _check_family(family)
    return _walk_terms(pot, n, lam, t, k, family, primed, closing="b")[k]


def A_series(pot: MathieuPotential, n: int, lam: complex, t: float,
             k_max: int = 9, family: str = "periodic",
             primed: bool = False) -> SeriesValue:
    """Sum of the diagonal walk series up to k_max (odd terms only).

    One pass up to the largest odd order gives every term.  The tail bound
    extrapolates the observed geometric decay of successive odd terms.
    """
    _check_family(family)
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    k_top = k_max if k_max % 2 else k_max - 1
    odd = _walk_terms(pot, n, lam, t, k_top, family, primed, closing="a")[1::2]
    total = 0.0j
    for tk in odd:
        total += tk
    terms = [abs(tk) for tk in odd]
    tail = 0.0
    if len(terms) >= 2 and terms[-2] > 0:
        r = terms[-1] / terms[-2]
        if r < 0.9:
            tail = terms[-1] * r / (1.0 - r)
        else:
            tail = terms[-1]
    elif terms:
        tail = terms[-1] * 0.1
    return SeriesValue(value=total, k_max=k_max, tail_bound=float(tail))


def D_of(pot: MathieuPotential, n: int, lam: complex, t: float,
         k_max: int = 9, family: str = "periodic",
         s_branch: int = 1) -> DTerm:
    """Assemble D = (w + C)^2 + B B' and the split factors E_+-.

    Valid in the family's quasimomentum zone (within 1/(15 pi) of 0 or
    pi).  B and B' are the leading log-scale products; the neglected
    coupling tail is of relative size 10/n^2.
    """
    _check_family(family)
    a_plain = A_series(pot, n, lam, t, k_max, family, primed=False)
    a_primed = A_series(pot, n, lam, t, k_max, family, primed=True)
    return _assemble_d(pot, n, lam, t, family, s_branch, a_plain.value,
                       a_primed.value)


def _assemble_d(pot: MathieuPotential, n: int, lam: complex, t: float,
                family: str, s_branch: int, a_plain: complex,
                a_primed: complex) -> DTerm:
    """D and its split factors from the two A series values."""
    c_val = 0.5 * (a_plain - a_primed)
    b_plain = b_series_leading(pot, n, lam, t, family, primed=False)
    b_primed = b_series_leading(pot, n, lam, t, family, primed=True)
    bbp_log = b_plain.log * b_primed.log
    bbp = bbp_log.value()
    w = _windows(family, n, t)
    d_val = (w + c_val) ** 2 + bbp
    sq = cmath.sqrt(d_val)  # principal branch: arg in (-pi, pi]
    e_minus = s_branch * sq - (w + c_val)
    e_plus = s_branch * sq + (w + c_val)
    # the smaller split factor cancels catastrophically when the window
    # dominates; recover it from the exact product E_+ E_- = B B'
    if abs(e_plus) > abs(e_minus) and e_plus != 0:
        e_minus = bbp / e_plus
    elif e_minus != 0:
        e_plus = bbp / e_minus
    if family == "periodic":
        beta, alpha = periodic_pair(pot, n)
    else:
        beta, alpha = antiperiodic_pair(pot, n)
    prod = beta * alpha
    defect = None
    if not prod.is_zero:
        ee = e_plus * e_minus
        ref = prod.value()
        if ref != 0:
            defect = abs(ee / ref - 1.0)
    return DTerm(d_value=d_val, c_value=c_val, e_minus=e_minus,
                 e_plus=e_plus, s_branch=s_branch, w_value=w,
                 bbp_value=bbp, ee_defect=defect)


@dataclass
class PredictedDegeneracy:
    """Predicted quasimomentum of an eigenvalue collision for band n.

    ``t_pred`` is the offset from 0 (periodic) or from pi (antiperiodic)
    in log-scale; None when the coupling-product phase rules out a real
    collision.  ``validity`` flags predictions outside the asymptotic
    regime (antiperiodic n = 0).
    """

    n: int
    family: str
    t_pred: Optional[LogComplex]
    product_phase: float
    phase_margin: float
    validity: str = "ok"

    def t_value(self) -> Optional[float]:
        if self.t_pred is None:
            return None
        return float(self.t_pred.value().real)


def predict_double(pot: MathieuPotential, n: int, family: str = "periodic",
                   c_constant: float = 0.0) -> PredictedDegeneracy:
    """Collision offset from (w)^2 = -Re(beta_n alpha_n) (idealized).

    A real collision requires the coupling product to point (almost)
    along the negative real axis; the acceptance cone is 3*c/n^2 wide
    (plus a float-roundoff floor), with ``c_constant`` = 0 the idealized
    default.  The unresolved multiplicative constants enter only through
    the (1 + c/n^2 + 1/n^3)/(1 - c/n^2) factor, reported via sensitivity
    scans rather than baked in.
    """
    _check_family(family)
    if family == "periodic":
        if n < 1:
            raise ValidationError("periodic prediction needs n >= 1")
        beta, alpha = periodic_pair(pot, n)
        denom = 4.0 * math.pi * n
        validity = "ok"
    else:
        if n < 0:
            raise ValidationError("antiperiodic prediction needs n >= 0")
        beta, alpha = antiperiodic_pair(pot, n)
        denom = TWO_PI * (2 * n + 1)
        validity = "ok" if n >= 1 else "outside asymptotic validity"
    prod = beta * alpha
    if prod.is_zero:
        return PredictedDegeneracy(n=n, family=family, t_pred=None,
                                   product_phase=0.0, phase_margin=math.inf,
                                   validity="degenerate (ab = 0)")
    neg_phase = LogComplex(0.0, math.pi)
    flipped = prod * neg_phase  # -beta*alpha
    margin = abs(flipped.phase)
    nn = max(n, 1)
    tol = max(3.0 * c_constant / (nn * nn), 1e-9)
    if margin > tol:
        return PredictedDegeneracy(n=n, family=family, t_pred=None,
                                   product_phase=flipped.phase,
                                   phase_margin=margin, validity=validity)
    # Re(-beta*alpha) in log-scale: |prod| * cos(phase of -prod)
    cosphi = math.cos(flipped.phase)
    if cosphi <= 0:
        return PredictedDegeneracy(n=n, family=family, t_pred=None,
                                   product_phase=flipped.phase,
                                   phase_margin=margin, validity=validity)
    log_re = prod.log_magnitude + math.log(cosphi)
    if c_constant > 0:
        cn2 = c_constant / (nn * nn)
        if cn2 >= 1.0:
            return PredictedDegeneracy(
                n=n, family=family, t_pred=None,
                product_phase=flipped.phase, phase_margin=margin,
                validity=f"constant-dominated (c/n^2 = {cn2:.3g} >= 1)")
        log_re += math.log((1.0 + cn2 + nn ** -3) / (1.0 - cn2))
    t_log = LogComplex(0.5 * log_re - math.log(denom), 0.0)
    return PredictedDegeneracy(n=n, family=family, t_pred=t_log,
                               product_phase=flipped.phase,
                               phase_margin=margin, validity=validity)


def comparison_rows(pot: MathieuPotential, bands, t_values, engine_value):
    """Closed-form branches against engine values, as CSV-ready rows.

    ``engine_value(n, t)`` supplies the tracked eigenvalue; each row is
    (n, t, formula, engine, abs_err, rel_err, branch) with the branch that
    the Remark-1 label n continues in the relevant zone (j = 2 for n > 0
    near 0, j = 1 for the mirror label and near pi).
    """
    rows = []
    for n in bands:
        band = abs(n)
        if band < 1:
            continue
        for t in t_values:
            if t <= T_VALID:
                j = 2 if n > 0 else 1
            elif t >= math.pi - T_VALID:
                j = 1 if n > 0 else 2
            else:
                j = 2
            try:
                formula = asymptotic_lambda(pot, band, float(t), j)
            except PoleProximityError:
                continue
            engine = complex(engine_value(n, float(t)))
            abs_err = abs(formula - engine)
            rel_err = abs_err / max(abs(engine), 1e-300)
            rows.append((n, float(t), formula, engine, abs_err, rel_err, j))
    return rows


def comparison_csv(rows) -> str:
    lines = ["n,t,formula_value,engine_value,abs_err,rel_err,branch"]
    for (n, t, formula, engine, abs_err, rel_err, j) in rows:
        lines.append(",".join([
            str(n), repr(t), _complex_cell(formula), _complex_cell(engine),
            repr(abs_err), repr(rel_err), str(j)]))
    return "\n".join(lines) + "\n"


def _complex_cell(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def asymptotic_lambda(pot: MathieuPotential, n: int, t: float, j: int,
                      k_max: int = 9, iterations: int = 4) -> complex:
    """Eigenvalue of branch j in {1, 2} from the closed-form relation.

    Near t = 0:   lam = (2 pi n + t)^2 + (A + A')/2 - w + (-1)^j sqrt(D),
    near t = pi:  the antiperiodic analogue with w = 2 pi (2n+1)(t - pi);
    mid-zone t just returns the unperturbed (2 pi n + t)^2 leading term.
    The implicit lambda-dependence is resolved by fixed-point iteration.
    """
    if j not in (1, 2):
        raise ValidationError("branch j must be 1 or 2")
    if n < 1:
        raise ValidationError("asymptotic branches are defined for n >= 1")
    if 0.0 <= t <= T_VALID:
        family = "periodic"
    elif math.pi - T_VALID <= t <= math.pi:
        family = "antiperiodic"
    else:
        return complex((TWO_PI * n + t) ** 2)
    sign = -1.0 if j == 1 else 1.0
    w = _windows(family, n, t)
    lam = complex((TWO_PI * n + t) ** 2 - w)
    for _ in range(iterations):
        a_plain = A_series(pot, n, lam, t, k_max, family, primed=False).value
        a_primed = A_series(pot, n, lam, t, k_max, family, primed=True).value
        dterm = _assemble_d(pot, n, lam, t, family, 1, a_plain, a_primed)
        lam = ((TWO_PI * n + t) ** 2 + 0.5 * (a_plain + a_primed)
               - w + sign * cmath.sqrt(dterm.d_value))
    return lam
