"""Hill discriminant from ODE-integrated fundamental solutions.

theta and phi solve -y'' + q y = lambda y on [0, 1] with theta(0) = 1,
theta'(0) = 0, phi(0) = 0, phi'(0) = 1; the discriminant is
F(lambda) = phi'(1) + theta(1) and eigenvalues of the quasimomentum-t
family solve F(lambda) = 2 cos t.  Derivatives of F in lambda come from
the variational equations integrated jointly (y_lam'' = (q - lambda) y_lam
- y and its second-order analogue), never from finite differences.

Everything here is independent of the Fourier matrix engine, which makes
it the cross-check oracle for eigenvalues and for the projection norms
|d_n(t)| via the closed Wronskian-based formula.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ContourError, SimplenessError, \
    StepSizeUnderflowError, ValidationError
from .potential import MathieuPotential

TWO_PI = 2.0 * math.pi

_RTOL = 1e-13
_ATOL = 1e-14

#: |phi(1)| below this multiple of max(1, |theta'(1)|) switches the
#: Wronskian-based projection formula to its theta'-denominator variant.
_PHI_SWITCH = 1e-3


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
    dense: object = None

    @property
    def wronskian_defect(self) -> float:
        return abs(self.theta1 * self.dphi1 - self.dtheta1 * self.phi1 - 1.0)

    @property
    def f(self) -> complex:
        return self.theta1 + self.dphi1

    @property
    def f_prime(self) -> complex:
        return self.theta1_l + self.dphi1_l

    @property
    def f_second(self) -> complex:
        return self.theta1_ll + self.dphi1_ll


def _integrate(pot: MathieuPotential, lam: complex, dense: bool):
    a, b = pot.a, pot.b
    lamc = complex(lam)

    def rhs(x, y):
        q = a * cmath.exp(-2j * math.pi * x) + b * cmath.exp(2j * math.pi * x)
        w = q - lamc
        out = np.empty(12, dtype=complex)
        out[0] = y[1]
        out[1] = w * y[0]
        out[2] = y[3]
        out[3] = w * y[2]
        out[4] = y[5]
        out[5] = w * y[4] - y[0]
        out[6] = y[7]
        out[7] = w * y[6] - y[2]
        out[8] = y[9]
        out[9] = w * y[8] - 2.0 * y[4]
        out[10] = y[11]
        out[11] = w * y[10] - 2.0 * y[6]
        return out

    y0 = np.zeros(12, dtype=complex)
    y0[0] = 1.0
    y0[3] = 1.0
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=dense)
    if not sol.success:
        raise StepSizeUnderflowError(
            f"integrator failed at lambda={lamc!r}: {sol.message}")
    return sol


#: Least-recently-used results of ``fundamental_solutions``, at most
#: _CACHE_CAP of them: a hit refreshes its entry, a fill evicts the oldest.
_cache: "OrderedDict[tuple, FundamentalData]" = OrderedDict()
_CACHE_CAP = 512


def fundamental_solutions(pot: MathieuPotential, lam: complex,
                          dense: bool = False) -> FundamentalData:
    """Integrate the fundamental pair (and lambda-variations) across [0, 1].

    Valid for |lambda| <= 1e8.  ``dense=True`` keeps the integrator's dense
    output for later evaluation of theta(x), phi(x) along the period.
    """
    lam = complex(lam)
    if abs(lam) > 1e8:
        raise ValidationError("lambda outside the integrator validity envelope")
    key = (pot.a, pot.b, lam, dense)
    # a dense result also serves a slim request
    keys = [key] if dense else [key, (pot.a, pot.b, lam, True)]
    for k in keys:
        hit = _cache.get(k)
        if hit is not None:
            _cache.move_to_end(k)
            return hit
    sol = _integrate(pot, lam, dense)
    y = sol.y[:, -1]
    defect = abs(y[0] * y[3] - y[1] * y[2] - 1.0)
    # the Wronskian defect tracks the achieved global error well; the
    # second term guards against fortuitous cancellation in the defect
    est = 4.0 * defect + 2e-14 * (1.0 + abs(lam))
    fd = FundamentalData(
        lam=lam, theta1=y[0], dtheta1=y[1], phi1=y[2], dphi1=y[3],
        est_error=float(est),
        theta1_l=y[4], dtheta1_l=y[5], phi1_l=y[6], dphi1_l=y[7],
        theta1_ll=y[8], dtheta1_ll=y[9], phi1_ll=y[10], dphi1_ll=y[11],
        dense=sol.sol if dense else None)
    _cache[key] = fd
    if len(_cache) > _CACHE_CAP:
        _cache.popitem(last=False)
    return fd


def discriminant(pot: MathieuPotential, lam: complex) -> complex:
    """F(lambda) = phi'(1, lambda) + theta(1, lambda)."""
    return fundamental_solutions(pot, lam).f


def discriminant_derivative(pot: MathieuPotential, lam: complex) -> complex:
    return fundamental_solutions(pot, lam).f_prime


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


def _phase_winding(f, corners) -> int:
    """Winding number of f around the closed polygon through corners.

    Tracks the argument of f with adaptive bisection until consecutive
    phase increments stay below pi/2; raises ContourError when a sample
    lands on (numerically) zero.
    """
    pts: List[complex] = []
    for i in range(len(corners)):
        z0, z1 = corners[i], corners[(i + 1) % len(corners)]
        for j in range(_SIDE_POINTS):
            pts.append(z0 + (z1 - z0) * j / _SIDE_POINTS)
    vals = [f(z) for z in pts]
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
            vals.insert(i + 1, f(zm))
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


def _count_with_retry(pot, lo, hi, im_lo, im_hi, retries: int = 4) -> int:
    pad = 0.0

    def f_prime(z):
        return discriminant_derivative(pot, z)

    for attempt in range(retries):
        try:
            return _phase_winding(f_prime, _rect_corners(
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
            near = []
            for seed in seeds:
                root = _polish_critical(pot, seed)
                # Newton may escape a wide box to some other root; only a
                # root that stays near its box counts as localized
                if root is not None and \
                        a0 - (a1 - a0) <= root.real <= a1 + (a1 - a0) and \
                        b0 - (b1 - b0) - 0.5 <= root.imag <= b1 + (b1 - b0) + 0.5:
                    near.append(root)
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
            # interior points still sit near a band; classify by proximity
            mu = cmath.sqrt(lam)
            if abs(mu.real / math.pi - round(mu.real / math.pi)) < 0.25:
                fam = "interior"
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
                     max_iter: int = 50) -> Optional[complex]:
    lam = complex(seed)
    for _ in range(max_iter):
        fd = fundamental_solutions(pot, lam)
        fp, fpp = fd.f_prime, fd.f_second
        if fpp == 0:
            return None
        step = fp / fpp
        lam = lam - step
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
        return _phase_winding(lambda z: discriminant_derivative(pot, z),
                              corners)
    target = 2.0 * math.cos(t)
    return _phase_winding(lambda z: discriminant(pot, z) - target, corners)


# --------------------------------------------------------------------------
# Projection norm via the Wronskian-based closed formula
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


#: Composite 4-point Gauss panels on [0, 1] for the norms in
#: ``dn_via_wronskian``.
_NORM_PANELS = 512


def _norm_sq_grid():
    edges = np.linspace(0.0, 1.0, _NORM_PANELS + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return xs, ws


_NORM_XS, _NORM_WS = _norm_sq_grid()


def dn_via_wronskian(pot: MathieuPotential, n: int, t: float,
                     lambda_n: complex) -> float:
    """|d_n(t)| from boundary data, independent of the matrix engine.

    Uses -1/d = ||Phi_t|| * ||Phi_-t|| / (phi(1) F'(lambda)) with
    Phi_t(x) = phi(1) theta(x) + (e^{it} - theta(1)) phi(x); when phi(1)
    nearly vanishes the variant with theta'(1) in the denominator is used
    instead.  Norms are composite-Gauss quadratures over the integrator's
    dense output.  Only the magnitude is returned; the sign convention of
    the closed formula is not consumed anywhere.

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
    yy = fd.dense(_NORM_XS)
    theta_x, phi_x = yy[0], yy[2]
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
