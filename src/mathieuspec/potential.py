"""Two-term trigonometric potential q(x) = a e^{-2 pi i x} + b e^{2 pi i x}.

Holds the potential pair, its derived scalar constants (the band-coupling
decay constants for the periodic and antiperiodic families), and the
Diophantine checks that drive the spectrality classification.  The decay
constants fall like ((2n-1)!)^-2, far below double-precision underflow for
moderate n, so they are kept in log-magnitude/phase form throughout.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DegenerateProductError, ValidationError

TWO_PI = 2.0 * math.pi

#: Upper end of the quasimomentum zone where the near-0 / near-pi pairing
#: machinery is valid (the analysis needs 15*pi*rho < 1).
T_VALID = 1.0 / (15.0 * math.pi)

#: Pairing zone half-width used by the curve tracker's bookkeeping.
RHO_PAIRING = 1.0 / (16.0 * math.pi)


def _wrap_phase(phi: float) -> float:
    """Reduce a phase to (-pi, pi]."""
    phi = math.fmod(phi, TWO_PI)
    if phi > math.pi:
        phi -= TWO_PI
    elif phi <= -math.pi:
        phi += TWO_PI
    return phi


@dataclass(frozen=True)
class LogComplex:
    """A complex number stored as (log|z|, arg z).

    ``log_magnitude`` is the natural log of |z| (``-inf`` encodes z = 0) and
    ``phase`` lies in (-pi, pi].  Prevents underflow of quantities that decay
    like ((2n-1)!)^-2 while keeping their phases exact.
    """

    log_magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phase", _wrap_phase(self.phase))

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return cls(float("-inf"), 0.0)
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(float("-inf"), 0.0)

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == float("-inf")

    def value(self) -> complex:
        """Back to an ordinary complex; may underflow to 0 or overflow."""
        if self.is_zero:
            return 0.0 + 0.0j
        try:
            mag = math.exp(self.log_magnitude)
        except OverflowError:
            mag = float("inf")
        return mag * cmath.exp(1j * self.phase)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_magnitude + other.log_magnitude,
                          self.phase + other.phase)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by LogComplex zero")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_magnitude - other.log_magnitude,
                          self.phase - other.phase)


@dataclass(frozen=True)
class MathieuPotential:
    """The pair (a, b) defining q(x) = a e^{-2 pi i x} + b e^{2 pi i x}."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        for z in (a, b):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError("potential amplitudes must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def ab(self) -> complex:
        return self.a * self.b

    @property
    def is_free(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_self_adjoint(self) -> bool:
        return self.b == self.a.conjugate()

    def adjoint(self) -> "MathieuPotential":
        """Potential of the adjoint operator: (a, b) -> (conj b, conj a)."""
        return MathieuPotential(self.b.conjugate(), self.a.conjugate())

    def rotated(self, c: float) -> "MathieuPotential":
        """Potential translated by x -> x + c (spectrum-preserving)."""
        w = cmath.exp(2j * math.pi * c)
        return MathieuPotential(self.a / w, self.b * w)

    def value(self, x):
        return (self.a * cmath.exp(-2j * math.pi * x)
                + self.b * cmath.exp(2j * math.pi * x))


@dataclass(frozen=True)
class AsymptoticConstants:
    """Decay constants of the band-n coupling, periodic and antiperiodic.

    ``beta_n``/``alpha_n`` drive the splitting of the eigenvalue pair near
    quasimomentum 0, the tilde pair near pi; ``epsilon_n`` is the geometric
    mean magnitude sqrt(|alpha_n beta_n|) that sets the degeneracy scale.
    """

    n: int
    alpha_exponent: Optional[float]  # arg(ab)/pi, None when ab == 0
    beta_n: LogComplex
    alpha_n: LogComplex
    tilde_beta_n: LogComplex
    tilde_alpha_n: LogComplex
    epsilon_n: LogComplex


def alpha_of(pot: MathieuPotential) -> float:
    """arg(ab)/pi in (-1, 1].

    Undefined for ab = 0; callers must branch to the degenerate regime.
    """
    ab = pot.ab
    if ab == 0:
        raise DegenerateProductError("alpha undefined: ab = 0")
    return cmath.phase(ab) / math.pi


def periodic_pair(pot: MathieuPotential, n: int) -> tuple:
    """(beta_n, alpha_n) = (b^{2n}, a^{2n}) / ((2 pi)^{2n-1} (2n-1)!)^2."""
    if n < 1:
        raise ValueError("periodic constants need n >= 1")
    log_norm = 2.0 * ((2 * n - 1) * math.log(TWO_PI) + math.lgamma(2 * n))
    beta = _amp_power(pot.b, 2 * n, log_norm)
    alpha = _amp_power(pot.a, 2 * n, log_norm)
    return beta, alpha


def antiperiodic_pair(pot: MathieuPotential, n: int) -> tuple:
    """(tilde beta_n, tilde alpha_n) = (b^{2n+1}, a^{2n+1}) / ((2 pi)^{2n} (2n)!)^2."""
    if n < 0:
        raise ValueError("antiperiodic constants need n >= 0")
    log_norm = 2.0 * (2 * n * math.log(TWO_PI) + math.lgamma(2 * n + 1))
    beta = _amp_power(pot.b, 2 * n + 1, log_norm)
    alpha = _amp_power(pot.a, 2 * n + 1, log_norm)
    return beta, alpha


def _amp_power(amp: complex, power: int, log_norm: float) -> LogComplex:
    if amp == 0:
        return LogComplex.zero()
    return LogComplex(power * math.log(abs(amp)) - log_norm,
                      power * cmath.phase(amp))


def asymptotic_constants(pot: MathieuPotential, n: int) -> AsymptoticConstants:
    """Bundle the band-n constants; factorials go through log-gamma."""
    if n < 1:
        raise ValueError("asymptotic_constants needs n >= 1")
    beta, alpha = periodic_pair(pot, n)
    tbeta, talpha = antiperiodic_pair(pot, n)
    if beta.is_zero or alpha.is_zero:
        eps = LogComplex.zero()
    else:
        eps = LogComplex(0.5 * (alpha.log_magnitude + beta.log_magnitude), 0.0)
    try:
        alpha_exp = alpha_of(pot)
    except DegenerateProductError:
        alpha_exp = None
    return AsymptoticConstants(n=n, alpha_exponent=alpha_exp,
                               beta_n=beta, alpha_n=alpha,
                               tilde_beta_n=tbeta, tilde_alpha_n=talpha,
                               epsilon_n=eps)


# --------------------------------------------------------------------------
# Diophantine conditions on alpha = arg(ab)/pi
# --------------------------------------------------------------------------

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided-float"


@dataclass
class DiophantineVerdict:
    """Tri-state verdicts for the three closeness-to-odd-integer conditions.

    ``condition8`` asks whether q*alpha can approach odd integers over all
    multipliers q >= 1, ``condition100`` over even multipliers, and
    ``condition104`` over odd multipliers >= 3.  With an exact rational
    input the answers are decided by the parity of the numerator; with a
    float input only the search diagnostics are reported.
    """

    condition8: str
    condition100: str
    condition104: str
    witness: Optional[tuple] = None
    rational_input: Optional[Fraction] = None
    float_min: Optional[float] = None
    float_min_even: Optional[float] = None
    float_min_odd: Optional[float] = None
    decay_profile: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "condition8": self.condition8,
            "condition100": self.condition100,
            "condition104": self.condition104,
            "witness": list(self.witness) if self.witness else None,
            "rational_input": (str(self.rational_input)
                               if self.rational_input is not None else None),
            "float_min": self.float_min,
            "float_min_even": self.float_min_even,
            "float_min_odd": self.float_min_odd,
            "decay_profile": [[int(q), float(v)] for q, v in self.decay_profile],
        }


def _odd_hit(alpha: Fraction, multipliers: str) -> Optional[tuple]:
    """Smallest q making q*alpha an odd integer, or None.

    ``multipliers`` selects the allowed q: 'all' (q >= 1), 'even' (q = 2j),
    or 'odd3' (q = 2j+1 >= 3).  The odd integer may be negative; the witness
    is returned as (q, p) with q*alpha = 2p - 1 solved over the integers.
    """
    m, q0 = alpha.numerator, alpha.denominator
    if m % 2 == 0:
        return None
    # q*alpha integer requires q0 | q; q = j*q0 gives j*m, odd iff j odd.
    for j in range(1, 8):
        if j % 2 == 0:
            continue
        q = j * q0
        if multipliers == "even" and q % 2 != 0:
            continue
        if multipliers == "odd3" and (q % 2 == 0 or q < 3):
            continue
        val = j * m  # = q * alpha, an odd integer
        return (q, (val + 1) // 2)
    return None


def _float_scan(alpha: float, search_bound: int, step: int, start: int):
    """min_q over the multiplier family of dist(q|alpha|, odd integers).

    Returns (best_distance, witness, profile) where profile records the
    rate diagnostic q * dist at every record-setting q.  For each q the two
    odd candidates 2p - 1 and 2p + 1 around q|alpha| are compared, a tie
    going to the smaller p; a record is a strict improvement on every
    earlier q.
    """
    q = np.arange(start, search_bound + 1, step)
    if len(q) == 0:
        return math.inf, None, []
    v = q * abs(alpha)
    p = np.maximum(1.0, np.floor((v + 1.0) / 2.0))
    d_lo = np.abs(v - (2.0 * p - 1.0))
    d_hi = np.abs(v - (2.0 * p + 1.0))
    take_hi = d_hi < d_lo
    dist = np.where(take_hi, d_hi, d_lo)
    pick = p + take_hi
    earlier = np.concatenate([[math.inf], np.minimum.accumulate(dist)[:-1]])
    records = np.flatnonzero(dist < earlier)
    profile = [(int(q[j]), float(q[j] * dist[j])) for j in records]
    last = records[-1]
    return float(dist[last]), (int(q[last]), int(pick[last])), profile


def check_diophantine(alpha: Union[Fraction, float, int],
                      search_bound: int = 100_000) -> DiophantineVerdict:
    """Evaluate the three odd-integer-approach conditions for alpha.

    Exact rationals (Fraction/int) are decided by numerator parity, which
    matches brute-force enumeration when the odd target integer is allowed
    its natural sign.  Floats only get the search diagnostics: the literal
    infimum is zero for every irrational alpha, so no definitive verdict is
    claimed; the decay profile q -> q*min_p|q alpha - (2p-1)| is reported
    as the rate diagnostic instead.
    """
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    if isinstance(alpha, Fraction):
        hit8 = _odd_hit(alpha, "all")
        hit100 = _odd_hit(alpha, "even")
        hit104 = _odd_hit(alpha, "odd3")
        return DiophantineVerdict(
            condition8=FAILS if hit8 else HOLDS,
            condition100=FAILS if hit100 else HOLDS,
            condition104=FAILS if hit104 else HOLDS,
            witness=hit8,
            rational_input=alpha,
        )
    if search_bound > 1_000_000:
        raise ValidationError("float-mode search_bound capped at 1e6")
    if not math.isfinite(alpha):
        raise ValidationError("alpha must be finite")
    best8, wit8, prof8 = _float_scan(float(alpha), search_bound, 1, 1)
    best_ev, _, _ = _float_scan(float(alpha), search_bound, 2, 2)
    best_od, _, _ = _float_scan(float(alpha), search_bound, 2, 3)
    return DiophantineVerdict(
        condition8=UNDECIDED,
        condition100=UNDECIDED,
        condition104=UNDECIDED,
        witness=wit8,
        float_min=best8,
        float_min_even=best_ev,
        float_min_odd=best_od,
        decay_profile=prof8,
    )


def snap_rational(alpha: float, max_den: int = 64,
                  tol: float = 1e-11) -> Optional[Fraction]:
    """Promote a float alpha to an exact small-denominator rational.

    arg(ab)/pi of double inputs lands within a few ulps of the exact value
    whenever ab is exactly real/imaginary, which is where the exact parity
    rule matters.  Returns None when alpha is not that close to any m/q
    with q <= max_den.
    """
    cand = Fraction(alpha).limit_denominator(max_den)
    if abs(float(cand) - alpha) <= tol:
        return cand
    return None


# --------------------------------------------------------------------------
# Literal parsing (CLI / config surface)
# --------------------------------------------------------------------------

_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    r"^\s*({f})\s*$|^\s*({f})\s*([+-])\s*({f})i\s*$".format(f=_FLOAT))
_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*/\s*(\d+)\s*$|^\s*([+-]?\d+)\s*$")


def parse_complex(text: str) -> complex:
    """Parse 'RE' or 'RE+IMi' / 'RE-IMi' (e.g. '1.5-0.25i')."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValidationError(f"bad complex literal: {text!r}")
    if m.group(1) is not None:
        return complex(float(m.group(1)), 0.0)
    re_part = float(m.group(2))
    im_part = float(m.group(4))
    if m.group(3) == "-":
        im_part = -im_part
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    """Inverse of parse_complex: round-trips through repr floats."""
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_rational(text: str) -> Fraction:
    """Parse 'm/q' (or a bare integer) into an exact Fraction."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValidationError(f"bad rational literal: {text!r}")
    if m.group(3) is not None:
        return Fraction(int(m.group(3)))
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValidationError("zero denominator")
    return Fraction(num, den)
