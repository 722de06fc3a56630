"""Hill discriminant from a batched fourth-order Magnus monodromy.

theta and phi solve -y'' + q y = lambda y on [0, 1] with theta(0) = 1,
theta'(0) = 0, phi(0) = 0, phi'(0) = 1; the discriminant is
F(lambda) = phi'(1) + theta(1) and eigenvalues of the quasimomentum-t
family solve F(lambda) = 2 cos t.

The monodromy Y(1) = [[theta, phi], [theta', phi']](1) is the product of N
step propagators exp(Omega), each a fourth-order Magnus step on the two
Gauss-Legendre nodes of its step (Iserles, Munthe-Kaas, Norsett & Zanna,
"Lie-group methods", Acta Numerica 9 (2000), section 4).  Omega is a
traceless 2x2 matrix, linear in lambda, so exp(Omega) and its first two
lambda-derivatives are closed forms; the product rule carries all three
through one pairwise tree, which gives F' and F'' of the same
discretization exactly, never by finite differences.  The arithmetic is
element-wise over an array of lambda values, so a lambda's result does not
depend on the batch it was computed in.  N doubles until F moves by less
than a tolerance between N/2 and N steps, and that move is the error
estimate; the Wronskian identity det Y = 1, which a Magnus step keeps by
construction, is checked only for rounding.

Everything here is independent of the Fourier matrix engine, which makes
it the cross-check oracle for eigenvalues and for the projection norms
|d_n(t)| via the closed Wronskian-based formula.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._quadrature import composite, gauss_legendre
from .errors import ContourError, SimplenessError, \
    StepSizeUnderflowError, ValidationError
from .potential import MathieuPotential

TWO_PI = 2.0 * math.pi

#: |phi(1)| below this multiple of max(1, |theta'(1)|) switches the
#: Wronskian-based projection formula to its theta'-denominator variant.
_PHI_SWITCH = 1e-3

#: Steps of the first run, which is compared with a run of half as many;
#: N doubles from here up to _N_CAP.
_N_START = 1024
_N_CAP = 16384
#: N doubles while |F_N - F_{N/2}| > _EST_TOL (1 + |lambda|) max(1, |F_N|),
#: unless that move shrank less than 4x in the last doubling and is below
#: _STALL_TOL (1 + |lambda|) max(1, |F_N|): then rounding, not the step,
#: limits F.  Every error estimate is the move plus _EST_TOL (1 + |lambda|).
_EST_TOL = 2e-14
_STALL_TOL = 1e-11
#: A Wronskian defect above this means rounding has swamped the monodromy.
_DEFECT_CAP = 1e-10
#: lambda values times steps per array pass, which bounds scratch memory.
_CHUNK_STEPS = 8192

_SQRT3 = math.sqrt(3.0)
#: The two Gauss-Legendre nodes of a step, as fractions of the step.
_GAUSS2 = np.array([0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0])

#: Taylor coefficients in sigma of c1 = cosh(sqrt(sigma)) - 1 (over sigma),
#: s = sinh(sqrt(sigma)) / sqrt(sigma), ds/dsigma and d2s/dsigma2, used
#: for |sigma| <= _SERIES_SIGMA, where the closed forms of the derivatives
#: cancel; the truncation error there is below 1e-18 relative.
_SERIES_SIGMA, _SERIES_TERMS = 4.0, 15
_FACT = [math.factorial(k) for k in range(2 * _SERIES_TERMS + 4)]
_C1_SERIES = [1.0 / _FACT[2 * k + 2] for k in range(_SERIES_TERMS)]
_S_SERIES = [1.0 / _FACT[2 * k + 1] for k in range(_SERIES_TERMS)]
_S1_SERIES = [k / _FACT[2 * k + 1] for k in range(1, _SERIES_TERMS + 1)]
_S2_SERIES = [k * (k - 1) / _FACT[2 * k + 1]
              for k in range(2, _SERIES_TERMS + 2)]


@dataclass
class FundamentalData:
    """Boundary values of the fundamental solutions and their lambda-derivatives."""

    lam: complex
    theta1: complex
    dtheta1: complex
    phi1: complex
    dphi1: complex
    est_error: float
    # first and second lambda-derivatives of the same four boundary values
    theta1_l: complex = 0.0j
    dtheta1_l: complex = 0.0j
    phi1_l: complex = 0.0j
    dphi1_l: complex = 0.0j
    theta1_ll: complex = 0.0j
    dtheta1_ll: complex = 0.0j
    phi1_ll: complex = 0.0j
    dphi1_ll: complex = 0.0j
    # rows theta(x), phi(x) at _NORM_XS, or None
    dense: Optional[np.ndarray] = None
    # Magnus steps of the certified run
    steps: int = 0

    @property
    def wronskian_defect(self) -> float:
        return abs(self.theta1 * self.dphi1 - self.dtheta1 * self.phi1 - 1.0)

    @property
    def f(self) -> complex:
        """F(lambda) = phi'(1, lambda) + theta(1, lambda)."""
        return self.theta1 + self.dphi1

    @property
    def f_prime(self) -> complex:
        return self.theta1_l + self.dphi1_l

    @property
    def f_second(self) -> complex:
        return self.theta1_ll + self.dphi1_ll


# --------------------------------------------------------------------------
# The Magnus monodromy
# --------------------------------------------------------------------------

def _omega_coeffs(pot: MathieuPotential, x0, s):
    """alpha, beta of the Magnus exponent of the step [x0, x0 + s].

    With A = [[0, 1], [q - lambda, 0]] at the two Gauss nodes,
    Omega = s/2 (A1 + A2) + sqrt(3) s^2/12 [A2, A1]
          = [[alpha, s], [beta - s lambda, -alpha]].
    """
    x = np.asarray(x0)[..., None] + np.asarray(s)[..., None] * _GAUSS2
    q = pot.a * np.exp(-2j * np.pi * x) + pot.b * np.exp(2j * np.pi * x)
    alpha = (_SQRT3 / 12.0) * s * s * (q[..., 0] - q[..., 1])
    beta = 0.5 * s * (q[..., 0] + q[..., 1])
    return alpha, beta


@functools.lru_cache(maxsize=8)
def _step_coeffs(pot: MathieuPotential, n: int):
    """alpha, beta of the n equal steps across [0, 1] (shared, read-only)."""
    coeffs = _omega_coeffs(pot, np.arange(n) / n, 1.0 / n)
    for c in coeffs:
        c.setflags(write=False)
    return coeffs


def _horner(coeffs, z):
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        out *= z
        out += c
    return out


def _cosh_sinc(sigma):
    """c - 1, s, ds/dsigma, d2s/dsigma2 at sigma (dc/dsigma = s/2).

    Each element takes its own branch by |sigma|, so a value does not
    depend on the other elements of the array.
    """
    c1 = _horner(_C1_SERIES, sigma) * sigma
    s = _horner(_S_SERIES, sigma)
    s1 = _horner(_S1_SERIES, sigma)
    s2 = _horner(_S2_SERIES, sigma)
    big = np.abs(sigma) > _SERIES_SIGMA
    if big.any():
        sb = sigma[big]
        r = np.sqrt(sb)
        c1[big] = 2.0 * np.sinh(0.5 * r) ** 2
        s[big] = np.sinh(r) / r
        c_s = c1[big] + 1.0 - s[big]
        s1[big] = c_s / (2.0 * sb)
        s2[big] = (sb * s[big] - 3.0 * c_s) / (4.0 * sb * sb)
    return c1, s, s1, s2


def _propagators(alpha, beta, h, lam):
    """exp(Omega) - I and the first two lambda-derivatives of exp(Omega).

    exp(Omega) = c I + s Omega with sigma = -det Omega; sigma and Omega are
    linear in lambda (d sigma = -h^2, d Omega = [[0, 0], [-h, 0]]).  The
    identity is split off so that a near-identity step keeps its small
    part to full relative precision.  Each result is a list of the
    components 00, 01, 10, 11 as (lambda, step) arrays.
    """
    g = beta - h * lam[:, None]
    sigma = alpha * alpha + h * g
    c1, s, s1, s2 = _cosh_sinc(sigma)
    ds = -h * h
    c_l, s_l = 0.5 * ds * s, ds * s1
    c_ll, s_ll = 0.5 * ds * ds * s1, ds * ds * s2
    sa, sa_l, sa_ll = s * alpha, s_l * alpha, s_ll * alpha
    x = [c1 + sa, s * h, s * g, c1 - sa]
    e_l = [c_l + sa_l, s_l * h, s_l * g - s * h, c_l - sa_l]
    e_ll = [c_ll + sa_ll, s_ll * h, s_ll * g - 2.0 * h * s_l, c_ll - sa_ll]
    return x, e_l, e_ll


def _mat(x, y):
    """2x2 product x y, component-wise on arrays."""
    return [x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]]


def _add(*terms):
    return [functools.reduce(np.add, parts) for parts in zip(*terms)]


def _monodromy(pot: MathieuPotential, lam: np.ndarray, n: int) -> np.ndarray:
    """Y(1) - I and the two lambda-derivatives of Y(1) over n steps.

    Returns a (3, 4, len(lam)) array: Y - I, Y' and Y'' in the components
    00, 01, 10, 11 (theta, phi, theta', phi') at x = 1.  The steps are
    multiplied pairwise, later on the left, as (I + Xa)(I + Xb) =
    I + (Xa + Xb + Xa Xb), with (Y', Y'') carried by the product rule; n is
    a power of two.
    """
    alpha, beta = _step_coeffs(pot, n)
    x, p_l, p_ll = _propagators(alpha, beta, 1.0 / n, lam)
    while x[0].shape[1] > 1:
        xa, a_l, a_ll = ([m[:, 1::2] for m in v] for v in (x, p_l, p_ll))
        xb, b_l, b_ll = ([m[:, 0::2] for m in v] for v in (x, p_l, p_ll))
        a1b1 = _mat(a_l, b_l)
        x, p_l, p_ll = (
            _add(xa, xb, _mat(xa, xb)),
            _add(a_l, b_l, _mat(a_l, xb), _mat(xa, b_l)),
            _add(a_ll, b_ll, _mat(a_ll, xb), _mat(xa, b_ll), a1b1, a1b1))
    return np.array([[m[:, 0] for m in v] for v in (x, p_l, p_ll)])


def _dense_values(pot: MathieuPotential, lam: complex, n: int) -> np.ndarray:
    """theta(x) and phi(x) at _NORM_XS from the n-step propagators.

    A prefix scan of the step products gives Y - I at the step boundaries
    k/n; one partial Magnus step carries Y from the boundary below each
    node to the node.
    """
    alpha, beta = _step_coeffs(pot, n)
    lam_arr = np.array([lam], dtype=complex)
    y = [m[0] for m in _propagators(alpha, beta, 1.0 / n, lam_arr)[0]]
    d = 1
    while d < n:
        ya, yb = [m[d:] for m in y], [m[:-d] for m in y]
        y = [np.concatenate((m[:d], pm))
             for m, pm in zip(y, _add(ya, yb, _mat(ya, yb)))]
        d *= 2
    # y[k] = Y((k + 1)/n) - I; the boundary below step k is k/n
    k = np.minimum((_NORM_XS * n).astype(int), n - 1)
    yk = [np.concatenate(([0.0], m[:-1]))[k] for m in y]
    s = _NORM_XS - k / n
    alpha_s, beta_s = _omega_coeffs(pot, k / n, s)
    g = beta_s - s * lam
    c1, sh = _cosh_sinc(alpha_s * alpha_s + s * g)[:2]
    # row 0 of (I + X)(I + Yk)
    x00, x01 = c1 + sh * alpha_s, sh * s
    return np.array([1.0 + x00 + yk[0] + x00 * yk[0] + x01 * yk[2],
                     x01 + yk[1] + x00 * yk[1] + x01 * yk[3]])


def _integrate(pot: MathieuPotential, lams: Sequence[complex],
               dense: bool) -> List[FundamentalData]:
    """Certified monodromy data for each lambda.

    Each lambda doubles its own step count from _N_START while the move of
    F from N/2 to N steps is above tolerance; the lambdas that go on are
    redone together.  Raises StepSizeUnderflowError when _N_CAP steps are
    not enough, or when the monodromy overflows or loses its Wronskian
    identity to rounding.
    """
    lam = np.asarray(lams, dtype=complex)
    out: List[Optional[FundamentalData]] = [None] * lam.size
    todo = np.arange(lam.size)
    n, last = _N_START, np.full(lam.size, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coarse = _batched(pot, lam, n // 2)
        while todo.size:
            fine = _batched(pot, lam[todo], n)
            finite = np.isfinite(fine).all(axis=(0, 1))
            if not finite.all():
                raise StepSizeUnderflowError(
                    f"the monodromy at lambda="
                    f"{complex(lam[todo[np.argmin(finite)]])!r} overflows")
            # F - 2 = tr(Y - I)
            f2 = fine[0, 0] + fine[0, 3]
            move = np.abs(f2 - coarse[0, 0] - coarse[0, 3])
            scale = (1.0 + np.abs(lam[todo])) * np.maximum(1.0,
                                                           np.abs(f2 + 2.0))
            done = (move <= _EST_TOL * scale) | (
                (4.0 * move > last) & (move <= _STALL_TOL * scale))
            if n >= _N_CAP and not done.all():
                raise StepSizeUnderflowError(
                    f"the monodromy at lambda="
                    f"{complex(lam[todo[np.argmin(done)]])!r} needs more "
                    f"than {_N_CAP} steps")
            for j in np.flatnonzero(done):
                out[todo[j]] = _certified(
                    pot, complex(lam[todo[j]]), fine[:, :, j],
                    coarse[:, :, j], float(move[j]), n, dense)
            todo, coarse, last, n = (todo[~done], fine[:, :, ~done],
                                     move[~done], 2 * n)
    return out


def _certified(pot: MathieuPotential, lam: complex, fine, coarse,
               move: float, n: int, dense: bool) -> FundamentalData:
    """FundamentalData of one lambda from its runs on n/2 and n steps."""
    # the Richardson step of a symmetric fourth-order method
    y = fine + (fine - coarse) / 15.0
    y[0, [0, 3]] += 1.0
    # components 00, 10, 01, 11: theta, theta', phi, phi'
    v = [complex(z) for z in y[:, [0, 2, 1, 3]].ravel()]
    fd = FundamentalData(lam, *v[:4], move + _EST_TOL * (1.0 + abs(lam)),
                         *v[4:], steps=n)
    if not fd.wronskian_defect <= _DEFECT_CAP:  # nan included
        raise StepSizeUnderflowError(
            f"the monodromy at lambda={lam!r} lost its Wronskian identity "
            f"to rounding (defect {fd.wronskian_defect:.3e})")
    if dense:
        fd.dense = _dense_values(pot, lam, n)
    return fd


def _batched(pot: MathieuPotential, lam: np.ndarray, n: int) -> np.ndarray:
    """_monodromy over lam in passes of at most _CHUNK_STEPS lambda-steps."""
    size = max(1, _CHUNK_STEPS // n)
    return np.concatenate([_monodromy(pot, lam[i:i + size], n)
                           for i in range(0, lam.size, size)], axis=2)


#: Least-recently-used results of ``fundamental_solutions``, at most
#: _CACHE_CAP of them: a hit refreshes its entry, a fill evicts the oldest.
_cache: "OrderedDict[tuple, FundamentalData]" = OrderedDict()
_CACHE_CAP = 512


def _cached(pot: MathieuPotential, lam: complex, dense: bool):
    key = (pot.a, pot.b, lam, dense)
    # a dense result also serves a slim request
    keys = [key] if dense else [key, (pot.a, pot.b, lam, True)]
    for k in keys:
        hit = _cache.get(k)
        if hit is not None:
            _cache.move_to_end(k)
            return hit
    return None


def _store(pot: MathieuPotential, fd: FundamentalData, dense: bool):
    _cache[(pot.a, pot.b, fd.lam, dense)] = fd
    if len(_cache) > _CACHE_CAP:
        _cache.popitem(last=False)


def _checked(lam) -> complex:
    lam = complex(lam)
    if abs(lam) > 1e8:
        raise ValidationError("lambda outside the integrator validity envelope")
    return lam


def fundamental_solutions(pot: MathieuPotential, lam: complex,
                          dense: bool = False) -> FundamentalData:
    """The fundamental pair (and lambda-variations) across [0, 1].

    Valid for |lambda| <= 1e8.  ``dense=True`` also keeps theta(x), phi(x)
    at the quadrature nodes of ``dn_via_wronskian``.
    """
    lam = _checked(lam)
    fd = _cached(pot, lam, dense)
    if fd is None:
        fd = _integrate(pot, [lam], dense)[0]
        _store(pot, fd, dense)
    return fd


def _fundamental_batch(pot: MathieuPotential,
                       lams: Sequence[complex]) -> List[FundamentalData]:
    """``fundamental_solutions`` of many lambdas, the misses in one batch.

    Each result equals the scalar call's bit for bit, so the cache holds
    the same values however the lambdas were grouped.
    """
    lams = [_checked(z) for z in lams]
    out = [_cached(pot, z, False) for z in lams]
    miss = [i for i, fd in enumerate(out) if fd is None]
    if miss:
        for i, fd in zip(miss, _integrate(pot, [lams[i] for i in miss],
                                          False)):
            out[i] = fd
            _store(pot, fd, False)
    return out


# --------------------------------------------------------------------------
# Root finding: eigenvalues and critical points
# --------------------------------------------------------------------------

@dataclass
class EigenRoot:
    """A Newton-polished root of F(lambda) - 2 cos t."""

    lam: complex
    f_residual: float
    f_prime: complex
    is_critical: bool  # |F'| ~ 0: double root


def _newton(pot, target: complex, seed: complex, tol: float = 1e-10,
            max_iter: int = 60) -> Optional[Tuple[complex, complex]]:
    lam = complex(seed)
    bound = 10.0 * (1.0 + abs(seed))
    for it in range(max_iter):
        fd = fundamental_solutions(pot, lam)
        g = fd.f - target
        if abs(g) <= tol:
            return lam, fd.f_prime
        fp = fd.f_prime
        if fp == 0:
            return None
        step = g / fp
        # double roots stall plain Newton; the doubled step restores
        # quadratic convergence once |F'| is dominated by the curvature
        if it > 6 and abs(step) > 1e-14 * (1.0 + abs(lam)) and \
                abs(fp) ** 2 < 10.0 * abs(g * fd.f_second):
            step = 2.0 * step
        lam = lam - step
        if abs(lam - seed) > bound:
            return None
    return None


def eigenvalues_at(pot: MathieuPotential, t: float, window: Tuple[float, float],
                   seeds=None) -> List[EigenRoot]:
    """Roots of F(lambda) = 2 cos t inside the window, Newton-polished.

    Seeds default to the unperturbed guesses (2 pi k +- t)^2; extra seeds
    (e.g. matrix-engine eigenvalues) may be supplied.  Diverging seeds are
    skipped and reported on the .skipped attribute of the returned list.
    """
    lo, hi = window
    target = 2.0 * math.cos(t)
    if seeds is None:
        seeds = []
        kmax = int(math.sqrt(max(hi, 1.0)) / TWO_PI) + 2
        for k in range(-kmax, kmax + 1):
            for sgn in (1.0, -1.0):
                s = (TWO_PI * k + sgn * t) ** 2
                if lo - 1.0 <= s <= hi + 1.0:
                    seeds.append(complex(s))
    roots: List[EigenRoot] = []
    skipped = []
    for seed in seeds:
        res = _newton(pot, target, complex(seed))
        if res is None:
            skipped.append(complex(seed))
            continue
        lam, fp = res
        if not (lo - 1e-9 <= lam.real <= hi + 1e-9):
            continue
        if any(abs(lam - r.lam) <= 1e-8 * (1.0 + abs(lam)) for r in roots):
            continue
        fd = fundamental_solutions(pot, lam)
        roots.append(EigenRoot(
            lam=lam, f_residual=abs(fd.f - target), f_prime=fp,
            is_critical=abs(fp) < 1e-7 * (1.0 + abs(fd.f_second))))
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    roots = _RootList(roots)
    roots.skipped = skipped
    return roots


class _RootList(list):
    """List of roots carrying the skipped-seed report."""

    def __init__(self, items):
        super().__init__(items)
        self.skipped: list = []


@dataclass
class CriticalPoint:
    """Root of F'(lambda) with its quasimomentum location t* = arccos(F/2).

    ``family`` is 'periodic' (t* ~ 0), 'antiperiodic' (t* ~ pi) or
    'interior'; two-periodic points are candidate multiple eigenvalues of
    the endpoint problems.
    """

    lambda_star: complex
    t_star: complex
    f_value: complex
    f_prime_residual: float
    is_two_periodic: bool
    family: str
    n_guess: int

    def to_dict(self) -> dict:
        return {
            "lambda_re": float(self.lambda_star.real),
            "lambda_im": float(self.lambda_star.imag),
            "t_re": float(self.t_star.real),
            "t_im": float(self.t_star.imag),
            "family": self.family,
            "n_guess": int(self.n_guess),
        }


#: Initial samples per contour side, and the refinement depth that sizes
#: the bisection budget of ``_phase_winding``.
_SIDE_POINTS = 24
_PHASE_DEPTH = 12


def _phase_winding(pot: MathieuPotential, g, corners) -> int:
    """Winding number of g(FundamentalData) around the polygon of corners.

    Tracks the argument of g with adaptive bisection until consecutive
    phase increments stay below pi/2; raises ContourError when a sample
    lands on (numerically) zero.  The initial samples are one batch; the
    bisection midpoints are evaluated one at a time.
    """
    pts: List[complex] = []
    for i in range(len(corners)):
        z0, z1 = corners[i], corners[(i + 1) % len(corners)]
        for j in range(_SIDE_POINTS):
            pts.append(z0 + (z1 - z0) * j / _SIDE_POINTS)
    vals = [g(fd) for fd in _fundamental_batch(pot, pts)]
    total = 0.0
    i = 0
    n = len(pts)
    guard = 40 * n * _PHASE_DEPTH
    while i < n and guard > 0:
        guard -= 1
        z0, z1 = pts[i], pts[(i + 1) % n]
        v0, v1 = vals[i], vals[(i + 1) % n]
        if abs(v0) < 1e-13 * (1.0 + abs(v1)):
            raise ContourError(f"contour passes through a root near {z0!r}")
        dphi = cmath.phase(v1 / v0)
        if abs(dphi) > 0.5 * math.pi and abs(z1 - z0) > 1e-13 * (1 + abs(z0)):
            zm = 0.5 * (z0 + z1)
            pts.insert(i + 1, zm)
            vals.insert(i + 1, g(fundamental_solutions(pot, zm)))
            n += 1
            continue
        total += dphi
        i += 1
    if guard <= 0:
        raise ContourError("phase tracking exhausted its refinement budget")
    winding = total / TWO_PI
    if abs(winding - round(winding)) > 0.2:
        raise ContourError(f"non-integer winding {winding:.3f}")
    return int(round(winding))


def _rect_corners(lo, hi, im_lo, im_hi):
    return [complex(lo, im_lo), complex(hi, im_lo),
            complex(hi, im_hi), complex(lo, im_hi)]


def _f_prime(fd: FundamentalData) -> complex:
    return fd.f_prime


def _count_with_retry(pot, lo, hi, im_lo, im_hi, retries: int = 4) -> int:
    pad = 0.0
    for attempt in range(retries):
        try:
            return _phase_winding(pot, _f_prime, _rect_corners(
                lo - pad, hi + pad, im_lo - pad, im_hi + pad))
        except ContourError:
            pad += 0.037 * (hi - lo + 1.0) * (attempt + 1)
    raise ContourError(
        f"window [{lo}, {hi}] kept passing through roots of F'")


#: Side below which a box holding several roots of F' is polished as is.
_MIN_BOX = 1e-3


def find_critical_points(pot: MathieuPotential, window: Tuple[float, float],
                         im_halfwidth: float = 6.0) -> List[CriticalPoint]:
    """All roots of F' in window x [-im_halfwidth, im_halfwidth].

    Counts roots by the argument principle on subdivided rectangles (down
    to _MIN_BOX a side), then Newton-polishes each isolated root using
    F''.  The principal arccos branch fixes t*; conjugate pairs
    t* <-> -t* are collapsed by keeping Re t* in [0, pi].
    """
    lo, hi = float(window[0]), float(window[1])
    boxes = [(lo, hi, -im_halfwidth, im_halfwidth)]
    found: List[complex] = []

    def record(root):
        if root is not None and not any(
                abs(root - r) <= 1e-7 * (1.0 + abs(root)) for r in found):
            found.append(root)

    while boxes:
        a0, a1, b0, b1 = boxes.pop()
        cnt = _count_with_retry(pot, a0, a1, b0, b1)
        if cnt == 0:
            continue
        small = a1 - a0 <= _MIN_BOX and b1 - b0 <= _MIN_BOX
        if cnt == 1 or small:
            seeds = [complex(0.5 * (a0 + a1), 0.5 * (b0 + b1))]
            if cnt > 1:
                seeds = [complex(a0 + (a1 - a0) * u, 0.5 * (b0 + b1))
                         for u in np.linspace(0.1, 0.9, cnt)]
            # Newton may escape a wide box to some other root, or to where
            # the monodromy fails; only a root whose iterates stay near
            # its box counts as localized
            near_box = (a0 - (a1 - a0), a1 + (a1 - a0),
                        b0 - (b1 - b0) - 0.5, b1 + (b1 - b0) + 0.5)
            near = [root for root in (_polish_critical(pot, seed, near_box)
                                      for seed in seeds)
                    if root is not None]
            if len(near) >= cnt or small:
                for root in near:
                    record(root)
                continue
        if (a1 - a0) >= (b1 - b0):
            mid = 0.5 * (a0 + a1)
            boxes += [(a0, mid, b0, b1), (mid, a1, b0, b1)]
        else:
            mid = 0.5 * (b0 + b1)
            boxes += [(a0, a1, b0, mid), (a0, a1, mid, b1)]

    out = []
    for lam in found:
        if not (lo - 1e-9 <= lam.real <= hi + 1e-9
                and abs(lam.imag) <= im_halfwidth + 1e-9):
            continue
        fd = fundamental_solutions(pot, lam)
        tstar = cmath.acos(fd.f / 2.0)
        # conjugate symmetry: report the representative with Re t* in [0, pi]
        if tstar.real < 0:
            tstar = -tstar
        tol_2p = max(3e-7, math.sqrt(10.0 * fd.est_error))
        d0 = abs(tstar)
        dpi = abs(tstar - math.pi)
        if d0 <= tol_2p:
            fam, two_p = "periodic", True
        elif dpi <= tol_2p:
            fam, two_p = "antiperiodic", True
        else:
            fam, two_p = "interior", False
        mu_re = cmath.sqrt(lam).real
        n_guess = int(round(mu_re / TWO_PI)) if d0 < dpi else int(
            round((mu_re - math.pi) / TWO_PI))
        out.append(CriticalPoint(
            lambda_star=lam, t_star=tstar, f_value=fd.f,
            f_prime_residual=abs(fd.f_prime), is_two_periodic=two_p,
            family=fam, n_guess=n_guess))
    out.sort(key=lambda c: (c.lambda_star.real, c.lambda_star.imag))
    return out


def _polish_critical(pot, seed: complex,
                     box: Tuple[float, float, float, float],
                     max_iter: int = 50) -> Optional[complex]:
    """Newton on F' from ``seed``; None once an iterate leaves ``box``
    (re_lo, re_hi, im_lo, im_hi) or the iteration does not converge."""
    re_lo, re_hi, im_lo, im_hi = box
    lam = complex(seed)
    for _ in range(max_iter):
        fd = fundamental_solutions(pot, lam)
        fp, fpp = fd.f_prime, fd.f_second
        if fpp == 0:
            return None
        step = fp / fpp
        lam = lam - step
        if not (re_lo <= lam.real <= re_hi and im_lo <= lam.imag <= im_hi):
            return None
        if abs(step) <= 1e-13 * (1.0 + abs(lam)):
            fd = fundamental_solutions(pot, lam)
            if abs(fd.f_prime) <= 1e-9 * (1.0 + abs(fd.f_second)):
                return lam
            return None
    return None


def count_roots(pot: MathieuPotential, window: Tuple[float, float],
                t: Optional[float] = None, im_halfwidth: float = 6.0) -> int:
    """Argument-principle root count of F - 2 cos t (or of F' when t is None)."""
    corners = _rect_corners(window[0], window[1], -im_halfwidth, im_halfwidth)
    if t is None:
        return _phase_winding(pot, _f_prime, corners)
    target = 2.0 * math.cos(t)
    return _phase_winding(pot, lambda fd: fd.f - target, corners)


# --------------------------------------------------------------------------
# Projection norm via the Wronskian-based closed formula
# --------------------------------------------------------------------------

#: Composite 4-point Gauss panels, 512 of them, on [0, 1] for the norms
#: in ``dn_via_wronskian``.
_NORM_XS, _NORM_WS = (a.ravel() for a in composite(
    np.linspace(0.0, 1.0, 513), *gauss_legendre(4)))


def dn_via_wronskian(pot: MathieuPotential, n: int, t: float,
                     lambda_n: complex) -> float:
    """|d_n(t)| from boundary data, independent of the matrix engine.

    Uses -1/d = ||Phi_t|| * ||Phi_-t|| / (phi(1) F'(lambda)) with
    Phi_t(x) = phi(1) theta(x) + (e^{it} - theta(1)) phi(x); when phi(1)
    nearly vanishes the variant with theta'(1) in the denominator is used
    instead.  Norms are composite-Gauss quadratures over theta(x), phi(x)
    at the nodes, which ``fundamental_solutions(dense=True)`` keeps.  Only
    the magnitude is returned; the sign convention of the closed formula is
    not consumed anywhere.

    ``lambda_n`` may be approximate (e.g. interpolated along a curve); it
    is polished onto F(lambda) = 2 cos t first, staying within the band.
    """
    target = 2.0 * math.cos(t)
    lam = complex(lambda_n)
    for _ in range(8):
        fd0 = fundamental_solutions(pot, lam)
        g = fd0.f - target
        if abs(g) <= 1e-12 or abs(fd0.f_prime) < 1e-13 * (1 + abs(fd0.f_second)):
            break
        step = g / fd0.f_prime
        if abs(step) > 0.5 * (1.0 + abs(lambda_n)):
            break
        lam = lam - step
    fd = fundamental_solutions(pot, lam, dense=True)
    fp = fd.f_prime
    # |F'| at the exact root, quadratically corrected for the residual
    # offset: near a double root the raw |F'(lam)| only measures how far
    # the polish stopped from the collision, not the true simpleness.
    # When the correction cancels fp^2 down to the integrator noise floor
    # the root pair is unresolvable in double precision.
    fp_root_sq = fp * fp - 2.0 * fd.f_second * (fd.f - target)
    noise_sq = 10.0 * fd.est_error * (2.0 * abs(fd.f_second) + abs(fp)) \
        + (1e-12 * (1.0 + abs(fd.f_second))) ** 2
    if abs(fp_root_sq) <= noise_sq or \
            abs(fd.f - target) > 1e-9 * (1.0 + abs(target)):
        raise SimplenessError(
            f"|F'|^2 at the root near {lambda_n!r} is ~{abs(fp_root_sq):.3e}, "
            f"below the resolution floor {noise_sq:.3e}")
    theta_x, phi_x = fd.dense
    eit = cmath.exp(1j * t)
    emt = cmath.exp(-1j * t)
    if abs(fd.phi1) >= _PHI_SWITCH * max(1.0, abs(fd.dtheta1)):
        up = fd.phi1 * theta_x + (eit - fd.theta1) * phi_x
        um = fd.phi1 * theta_x + (emt - fd.theta1) * phi_x
        denom = fd.phi1 * fp
    else:
        up = fd.dtheta1 * phi_x + (eit - fd.dphi1) * theta_x
        um = fd.dtheta1 * phi_x + (emt - fd.dphi1) * theta_x
        denom = fd.dtheta1 * fp
    norm_p = math.sqrt(float(np.sum(_NORM_WS * np.abs(up) ** 2).real))
    norm_m = math.sqrt(float(np.sum(_NORM_WS * np.abs(um) ** 2).real))
    if norm_p == 0.0 or norm_m == 0.0:
        raise SimplenessError("degenerate pairing function in the closed formula")
    return abs(denom) / (norm_p * norm_m)
