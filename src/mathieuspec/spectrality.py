"""Projection-norm profiles, singularity detection, and classification.

|d_n(t)| is the inner product of the band-n eigenfunction with its adjoint
partner; its reciprocal is the spectral projection norm.  Two independent
routes compute it: full Fourier coefficient inner products from the matrix
engine, and the closed Wronskian-based formula from the ODE engine.  The
classification logic combines the modulus test |a| = |b|, the Diophantine
verdict on arg(ab)/pi, and the coupling-product cases for the shape of the
spectral expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import numpy as np

from . import floquet as flq
from ._quadrature import GK15, composite
from .discriminant import (CriticalPoint, dn_via_wronskian,
                           find_critical_points)
from .errors import (DegenerateProductError, MultipleEigenvalueError,
                     QuadratureError, SimplenessError)
from .potential import (DiophantineVerdict, MathieuPotential, alpha_of,
                        asymptotic_constants, check_diophantine,
                        snap_rational)

TWO_PI = 2.0 * math.pi

#: |ab| boundary below which every endpoint eigenvalue is provably simple.
COUPLING_SIMPLE_BOUND = 16.0 / 9.0

ELEGANT = "Elegant"
ASYMPTOTICALLY_ELEGANT = "AsymptoticallyElegant"
GASYMOV = "Gasymov"

#: Exclusion radii 10^-k of ``integral_inverse_dn``, largest first.
EXCLUSION_DECADES = range(2, 7)


def make_solver(pot: MathieuPotential, n_max: int,
                t_points: int = 96) -> flq.BandSolver:
    """A BandSolver on tracked curves for bands |n| <= n_max+1."""
    curves = flq.track_curves(
        pot, t_grid=flq.default_grid(t_points),
        n_range=range(-(n_max + 1), n_max + 2))
    return flq.BandSolver(pot, curves)


# --------------------------------------------------------------------------
# |d_n(t)| profiles
# --------------------------------------------------------------------------

@dataclass
class ProjectionProfile:
    """Sampled |d_n(t)| with method provenance and exclusions.

    ``samples`` holds (t, |d_n(t)|, method) triples with method either
    'eigenvector' or 'wronskian'; ``excluded`` lists quasimomenta where the
    band eigenvalue was not resolvably simple.
    """

    n: int
    samples: List[Tuple[float, float, str]]
    sup_inverse: float
    excluded: List[float]
    two_term_gap: List[Tuple[float, float]] = field(default_factory=list)

    def by_method(self, method: str) -> List[Tuple[float, float]]:
        return [(t, d) for (t, d, m) in self.samples if m == method]


def _projection_norms(solver: flq.BandSolver, ts, ns):
    """(|d|, lam, gap) of every (t, n) of ``ts`` x ``ns``, from one
    ``BandSolver.bands`` call; arrays are indexed [node, band].

    |d| is the coefficient inner product <c, c*>, NaN where the band is not
    resolvably simple.  gap is the two-term truncation gap
    |<c, c*> - (u u* + v v*)|, u and v the coefficients at k = n and at its
    mirror (-n for |t| <= pi/2, -n-1 beyond).
    """
    got = solver.bands(ts, ns)
    c, cs = got.right, got.left
    d = np.einsum("jkr,jkr->jr", np.conj(cs), c)
    ns = np.asarray(ns, dtype=int)
    mirror = np.where(np.abs(got.t)[:, None] <= math.pi / 2, -ns, -ns - 1)
    uu = np.zeros_like(d)
    for k in (np.broadcast_to(ns, mirror.shape), mirror):
        i = (np.clip(k, -solver.M, solver.M) + solver.M)[:, None, :]
        prod = (np.take_along_axis(c, i, axis=1)
                * np.conj(np.take_along_axis(cs, i, axis=1)))[:, 0]
        uu += np.where(np.abs(k) <= solver.M, prod, 0.0)
    return (np.where(got.ok, np.abs(d), np.nan), got.lam,
            np.abs(d - uu))


def dn_profile(pot: MathieuPotential, n: int, t_grid,
               solver: Optional[flq.BandSolver] = None,
               wronskian_fraction: float = 0.12) -> ProjectionProfile:
    """|d_n(t)| along the grid with the ODE formula as a cross-check; the
    one band of ``dn_profiles``."""
    return dn_profiles(pot, [n], t_grid, solver, wronskian_fraction)[0]


def dn_profiles(pot: MathieuPotential, ns, t_grid,
                solver: Optional[flq.BandSolver] = None,
                wronskian_fraction: float = 0.12) -> List[ProjectionProfile]:
    """The profile of |d_n(t)| of each band of ``ns`` along the grid.

    Every grid point of every band gets the eigenvector value, from one
    ``_projection_norms`` call; at least ``wronskian_fraction`` of a
    band's valid points also get the closed-formula value, which is even
    in t bit for bit, so a node -t with the same eigenvalue reuses the
    value of t.  Unresolvable points are recorded, never raised.
    """
    ns = [int(n) for n in ns]
    if solver is None:
        solver = make_solver(pot, max(abs(n) for n in ns) + 1)
    ts = np.asarray(t_grid, dtype=float)
    stride = max(1, int(1.0 / max(wronskian_fraction, 1e-6)))
    profiles = []
    for n, d, lam, gap in zip(ns, *(g.T for g in _projection_norms(
            solver, ts, ns))):
        ok = ~np.isnan(d)
        valid_ts = ts[ok].tolist()
        samples = [(t, dj, "eigenvector")
                   for t, dj in zip(valid_ts, d[ok].tolist())]
        closed = {}         # (|t|, lambda) -> the closed formula's value
        for t, lj in list(zip(valid_ts, lam[ok].tolist()))[::stride]:
            key = (abs(t), lj)
            if key not in closed:
                try:
                    closed[key] = float(dn_via_wronskian(pot, n, t, lj))
                except (SimplenessError, MultipleEigenvalueError):
                    closed[key] = None
            if closed[key] is not None:
                samples.append((t, closed[key], "wronskian"))
        inv = [1.0 / d for (_, d, m) in samples
               if m == "eigenvector" and d > 0]
        profiles.append(ProjectionProfile(
            n=n, samples=samples, sup_inverse=max(inv) if inv else math.inf,
            excluded=ts[~ok].tolist(),
            two_term_gap=list(zip(valid_ts, gap[ok].tolist()))))
    return profiles


# --------------------------------------------------------------------------
# Integrals of |d_n(t)|^-1
# --------------------------------------------------------------------------

def _clear_of(edges: np.ndarray, excluded: List[float],
              eps: float) -> np.ndarray:
    """Mask of the panels at distance >= eps from every excluded point."""
    pts = np.asarray(excluded, dtype=float)
    return np.all((edges[1:, None] <= pts - eps)
                  | (edges[:-1, None] >= pts + eps), axis=1)


@dataclass
class InverseIntegral:
    """Integral of |d_n|^-1 with the shrinking-exclusion divergence scan;
    ``error`` is the Gauss-Kronrod estimate |K15 - G7| of ``value``."""

    value: float
    divergence_flag: bool
    sequence: List[Tuple[float, float]]
    excluded: List[float]
    error: float


def integral_inverse_dn(pot: MathieuPotential, n: int,
                        interval: Tuple[float, float],
                        solver: Optional[flq.BandSolver] = None
                        ) -> InverseIntegral:
    """Graded quadrature of |d_n(t)|^-1 excluding trouble neighborhoods.

    Excluded points (simpleness failures) are located by a coarse scan.
    One pass of Gauss-Kronrod panels graded toward them gives the integral
    for each exclusion radius 10^-2 .. 10^-6 as a sum over the
    panels outside it.  It is flagged divergent when it keeps growing by
    >= 25% per decade without saturating; a Kronrod-Gauss estimate above
    5% of a value raises ``QuadratureError`` with (radius, value,
    estimate) as its trace.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (-math.pi <= lo < hi <= math.pi):
        raise QuadratureError("interval must sit inside (-pi, pi]")
    if solver is None:
        solver = make_solver(pot, abs(n) + 1)
    return _graded_integral(lo, hi, *_integrands([n], lo, hi, solver)[0])


def _integrands(ns, lo: float, hi: float, solver: flq.BandSolver):
    """(excluded, integrand) of each band of ``ns`` on [lo, hi]: the points
    of a 65-point scan where |d_n|^-1 blows up, and t -> |d_n(t)|^-1 on
    an array of nodes (inf where excluded).

    The bands share their nodes: a node (to 1e-15), scan included, goes to
    one ``_projection_norms`` call for all bands when a band first asks for
    it.
    """
    known = {}

    def inv_d(ts: np.ndarray) -> np.ndarray:
        keys = [round(t, 15) for t in ts.tolist()]
        new = {}
        for key, t in zip(keys, ts.tolist()):
            if key not in known:
                new.setdefault(key, t)
        if new:
            d = _projection_norms(solver, list(new.values()), ns)[0]
            inv = np.full(d.shape, np.inf)
            np.divide(1.0, d, out=inv, where=d > 0)
            known.update(zip(new, inv))
        return np.array([known[key] for key in keys])

    # the scan holds both endpoints, where trouble shows up as a blow-up
    scan = np.linspace(lo, hi, 65)
    vals = inv_d(scan)
    return [(scan[~np.isfinite(vals[:, b])].tolist(),
             lambda ts, b=b: inv_d(ts)[:, b]) for b in range(len(ns))]


def _graded_integral(lo: float, hi: float, excluded: List[float],
                     inv_d) -> InverseIntegral:
    """``integral_inverse_dn`` from the scan's exclusions and the
    integrand of ``_integrands``."""
    epss = [10.0 ** -k for k in EXCLUSION_DECADES]
    # radii four per decade from the smallest exclusion radius up to the
    # base panel width (and at least the largest): every exclusion radius
    # is one of them, so each exclusion boundary is a panel edge
    reach = max(epss[0], (hi - lo) / 8.0)
    radii = np.array([10.0 ** (q / 4)
                      for q in range(-4 * EXCLUSION_DECADES[-1], 1)
                      if 10.0 ** (q / 4) <= reach])
    for _attempt in range(4):
        # eight uniform base panels plus edges p -/+ r toward every
        # excluded point p; panels inside the smallest radius are not sampled
        pts = np.asarray(excluded, dtype=float)[:, None]
        edges = np.concatenate([np.linspace(lo, hi, 9),
                                (pts - radii).ravel(), (pts + radii).ravel()])
        edges = np.unique(edges[(edges >= lo) & (edges <= hi)])
        used = _clear_of(edges, excluded, epss[-1])
        xs, wk, wg = composite(edges, *GK15)
        nodes = xs[used].ravel()
        vals = inv_d(nodes)
        finite = np.isfinite(vals)
        if finite.all():
            break
        # the coarse scan missed a trouble spot; exclude it and retry
        excluded = sorted(set(excluded) | set(nodes[~finite].tolist()))
    else:
        raise QuadratureError("exclusion scan kept finding new "
                              "non-simple points", trace=excluded)
    vals = vals.reshape(-1, len(GK15[0]))
    kronrod = np.sum(wk[used] * vals, axis=1)
    estimate = np.abs(kronrod - np.sum(wg[used] * vals, axis=1))
    trace = []
    for eps in epss:
        clear = _clear_of(edges, excluded, eps)[used]
        trace.append((eps, float(np.sum(kronrod[clear])),
                      float(np.sum(estimate[clear]))))
    if any(est > 0.05 * (abs(val) + 1e-12) for (_, val, est) in trace):
        raise QuadratureError("Gauss-Kronrod estimate exceeds 5% of the "
                              "integral", trace=trace)
    seq = [(eps, val) for (eps, val, _) in trace]
    growth_ok = len(seq) >= 2 and all(
        b >= 1.25 * a for (_, a), (_, b) in zip(seq[:-1], seq[1:]))
    diverging = bool(excluded) and growth_ok
    return InverseIntegral(value=seq[-1][1], divergence_flag=diverging,
                           sequence=seq, excluded=excluded,
                           error=trace[-1][2])


# --------------------------------------------------------------------------
# Singularities and essential spectral singularities
# --------------------------------------------------------------------------

@dataclass
class EssRecord:
    """A confirmed essential spectral singularity with its evidence."""

    point: CriticalPoint
    geometric_multiplicity: int
    cluster_size: int
    divergence_flag: Optional[bool]
    band_guess: int

    def to_dict(self) -> dict:
        d = self.point.to_dict()
        d.update({"geometric_multiplicity": self.geometric_multiplicity,
                  "cluster_size": self.cluster_size,
                  "divergence_flag": self.divergence_flag})
        return d


def detect_singularities(pot: MathieuPotential, window: Tuple[float, float],
                         solver: Optional[flq.BandSolver] = None,
                         run_integrals: bool = True,
                         im_halfwidth: float = 6.0):
    """Spectral singularities and ESS inside the window.

    Critical points with real quasimomentum are the candidates.  The
    two-periodic ones are cross-checked against the endpoint spectra
    (``floquet.endpoint_spectrum``): a candidate with no matching
    eigenvalue cluster there is re-classified interior; a cluster within
    one parity block is deficient, and those become ESS, with the local
    integral of |d_n|^-1 recorded as evidence.  The endpoint spectra are
    solved at the M of the solver the integrals run on: the given one's,
    or the ``stable_m`` of the one ``make_solver`` would build.

    Returns (singularities, ess_records).
    """
    cps = find_critical_points(pot, window, im_halfwidth=im_halfwidth)
    singular: List[CriticalPoint] = []
    ess: List[EssRecord] = []
    n_hint = max(2, int(math.sqrt(max(window[1], 1.0)) / TWO_PI) + 1)
    endpoint_cache = {}
    endpoint_m = None if solver is None else solver.M
    spans = {}      # span -> the ESS records whose integral covers it

    def endpoint_solution(at_pi: bool):
        nonlocal endpoint_m
        if at_pi not in endpoint_cache:
            if endpoint_m is None:
                endpoint_m = flq.stable_m(pot, n_hint + 1)[0]
            endpoint_cache[at_pi] = flq.endpoint_spectrum(
                pot, math.pi if at_pi else 0.0, endpoint_m)
        return endpoint_cache[at_pi]

    for cp in cps:
        # A genuinely complex t* has Im t* >> the measurement noise, which
        # is the F-error amplified by 1/|sin t*| (or its square root when
        # t* is next to an endpoint).  Narrow spectral gaps poke past
        # |F| = 2 by tiny amounts, so a flat threshold cannot work.
        est = cp.est_error
        sin_mag = abs(np.sin(cp.t_star))
        noise = 5.0 * est / max(sin_mag, math.sqrt(est))
        if abs(cp.t_star.imag) > max(1e-8, noise):
            continue  # complex quasimomentum: the point is off the spectrum
        if cp.is_two_periodic:
            at_pi = cp.family == "antiperiodic"
            sol = endpoint_solution(at_pi)
            i = sol.nearest(cp.lambda_star)
            cluster = sol.cluster(i)
            if len(cluster) < 2 or \
                    abs(sol.lambdas[i] - cp.lambda_star) > 1e-5 * (
                        1.0 + abs(cp.lambda_star)):
                # endpoint spectrum shows no double there: interior point
                cp.is_two_periodic = False
                cp.family = "interior"
                singular.append(cp)
                continue
            deficient = sol.is_deficient(i)
            gm = sol.multiplicity(i)
            if not deficient:
                continue  # semisimple double: projections stay bounded
            singular.append(cp)
            # a multiple two-periodic eigenvalue with a one-dimensional
            # eigenspace is an ESS; the local integral divergence is only
            # recorded as evidence because its mass scales with the
            # (factorially small) Jordan coupling and saturates at any
            # reachable exclusion radius once the band index grows
            ess.append(EssRecord(point=cp, geometric_multiplicity=gm,
                                 cluster_size=len(cluster),
                                 divergence_flag=None,
                                 band_guess=cp.n_guess))
            if run_integrals:
                t0 = math.pi if at_pi else 0.0
                span = (max(t0 - 0.05, 0.0), t0) if at_pi else (0.0, 0.05)
                spans.setdefault(span, []).append(ess[-1])
        else:
            singular.append(cp)
    # the ESS that share a span share one pass over all their bands; the
    # solver is built only then, since most windows have no ESS
    if spans and solver is None:
        solver = make_solver(pot, n_hint)
    for (lo, hi), records in spans.items():
        bands = sorted({abs(r.band_guess) for r in records})
        flags = {}
        for band, got in zip(bands, _integrands(bands, lo, hi, solver)):
            try:
                flags[band] = _graded_integral(lo, hi, *got).divergence_flag
            except QuadratureError:
                flags[band] = None
        for r in records:
            r.divergence_flag = flags[abs(r.band_guess)]
    return singular, ess


# --------------------------------------------------------------------------
# Quasimomentum region decomposition near t = 0
# --------------------------------------------------------------------------

@dataclass
class RegionDecomposition:
    """The five scaled windows partitioning [0, n^-3] for band n.

    Boundaries come from eps_n = sqrt(|alpha_n beta_n|) and |beta_n| mapped
    through t = (window value) / (4 pi n).  I4 collapses when the moduli
    are equal and 5/4 eps_n exceeds |beta_n|.
    """

    n: int
    i1: Tuple[float, float]
    i2: Tuple[float, float]
    i3: Tuple[float, float]
    i4: Tuple[float, float]
    i5: Tuple[float, float]
    notices: List[str] = field(default_factory=list)


def region_decomposition(pot: MathieuPotential, n: int) -> RegionDecomposition:
    if n < 2:
        raise ValueError("region decomposition needs n >= 2")
    if pot.is_free:
        raise DegenerateProductError("epsilon undefined for the free operator")
    consts = asymptotic_constants(pot, n)
    notices = []
    eps = consts.epsilon_n
    eps_val = 0.0 if eps.is_zero else math.exp(eps.log_magnitude) \
        if eps.log_magnitude > -700 else 0.0
    if eps_val == 0.0 and not eps.is_zero:
        notices.append("epsilon underflows double precision; inner regions collapse")
    if eps.is_zero:
        notices.append("epsilon is exactly zero (one coupling vanishes)")
    beta_mag = 0.0 if consts.beta_n.is_zero else (
        math.exp(consts.beta_n.log_magnitude)
        if consts.beta_n.log_magnitude > -700 else 0.0)
    denom = 4.0 * math.pi * n
    top = n ** -3.0
    t_q1 = min(0.25 * eps_val / denom, top)
    t_q2 = min(1.25 * eps_val / denom, top)
    t_beta = min(beta_mag / denom, top)
    if t_beta < t_q2:
        t_beta = t_q2
        notices.append("I4 collapses: 5/4 eps exceeds |beta|")
    return RegionDecomposition(
        n=n,
        i1=(0.0, t_q1),
        i2=(t_q1, t_q2),
        i3=(t_q2, top),
        i4=(t_q2, t_beta),
        i5=(t_beta, top),
        notices=notices)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

@dataclass
class SpectralityReport:
    """Classification record serialized with stable field names."""

    modulus_equal: bool
    diophantine: Optional[DiophantineVerdict]
    asymptotically_spectral: str
    singularities: List[CriticalPoint]
    ess: List[EssRecord]
    ess_at_infinity: str
    expansion_form: str
    alpha: Optional[float] = None
    alpha_exact: Optional[Fraction] = None
    notes: List[str] = field(default_factory=list)
    ess_at_infinity_evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "modulus_equal": bool(self.modulus_equal),
            "diophantine": self.diophantine.to_dict() if self.diophantine else None,
            "asymptotically_spectral": self.asymptotically_spectral,
            "singularities": [c.to_dict() for c in self.singularities],
            "ess": [e.to_dict() for e in self.ess],
            "ess_at_infinity": self.ess_at_infinity,
            "expansion_form": self.expansion_form,
            "alpha": self.alpha,
            "alpha_exact": (str(self.alpha_exact)
                            if self.alpha_exact is not None else None),
            "notes": list(self.notes),
            "ess_at_infinity_evidence": self.ess_at_infinity_evidence,
        }


def expansion_form(pot: MathieuPotential) -> str:
    """The expansion-form label, decided by the coupling product alone.

    Zero product -> endpoint-paired form, |ab| < 16/9 (every endpoint
    eigenvalue simple) -> term-by-term form, otherwise the grouped form.
    """
    ab = pot.ab
    if ab == 0:
        return GASYMOV
    if abs(ab) < COUPLING_SIMPLE_BOUND:
        return ELEGANT
    return ASYMPTOTICALLY_ELEGANT


def classify_operator(pot: MathieuPotential,
                      alpha_input: Union[Fraction, float, None] = None,
                      singularity_window: Optional[Tuple[float, float]] = None,
                      ess_scan_nmax: int = 0,
                      diophantine_bound: int = 100_000) -> SpectralityReport:
    """Spectrality verdicts and the expansion-form label for (a, b).

    The asymptotic-spectrality conjunction needs |a| = |b| plus the
    odd-integer-avoidance condition on arg(ab)/pi.  The expansion form is
    ``expansion_form(pot)``.
    Singularity detection and the bounded-n integral evidence only run
    when a window / scan depth is requested.
    """
    a_mag, b_mag = abs(pot.a), abs(pot.b)
    modulus_equal = math.isclose(a_mag, b_mag, rel_tol=1e-12, abs_tol=1e-300)
    notes: List[str] = []
    alpha_val: Optional[float] = None
    alpha_exact: Optional[Fraction] = None
    verdict: Optional[DiophantineVerdict] = None

    if pot.is_free:
        notes.append("free operator: self-adjoint, all projections orthogonal")
        report = SpectralityReport(
            modulus_equal=True, diophantine=None,
            asymptotically_spectral="holds",
            singularities=[], ess=[], ess_at_infinity="fails",
            expansion_form=expansion_form(pot),
            notes=notes + ["coupling product is zero, so the endpoint-paired "
                           "form is emitted even though the plain expansion "
                           "already converges"])
        return report

    if pot.ab != 0:
        if alpha_input is None:
            alpha_val = alpha_of(pot)
            alpha_exact = snap_rational(alpha_val)
        elif isinstance(alpha_input, Fraction):
            alpha_exact = alpha_input
            alpha_val = float(alpha_input)
        else:
            alpha_val = float(alpha_input)
        verdict = check_diophantine(
            alpha_exact if alpha_exact is not None else alpha_val,
            search_bound=diophantine_bound)

    if not modulus_equal:
        spectral = "fails"
        notes.append("modulus test fails: projection norms grow like |b/a|^n")
    elif verdict is None:
        spectral = "fails"
        notes.append("one coupling vanishes: endpoint doubles force blow-up")
    elif verdict.condition8 == "holds":
        spectral = "holds"
    elif verdict.condition8 == "fails":
        spectral = "fails"
    else:
        spectral = "undecided-float"

    ab = pot.ab
    if ab != 0 and ab.imag == 0:
        if pot.is_self_adjoint:
            notes.append("self-adjoint potential: spectral operator")
        else:
            notes.append("real coupling product without self-adjointness: "
                         "not a spectral operator")

    singular: List[CriticalPoint] = []
    ess: List[EssRecord] = []
    if singularity_window is not None:
        singular, ess = detect_singularities(pot, singularity_window)

    evidence = {}
    if ab == 0:
        ess_inf = "holds"
    else:
        ess_inf = "fails"
        if ess_scan_nmax >= 1:
            solver = make_solver(pot, ess_scan_nmax + 1)
            ns = range(1, ess_scan_nmax + 1)
            lo, hi = -math.pi + 1e-9, math.pi
            vals = {}
            for n, got in zip(ns, _integrands(ns, lo, hi, solver)):
                res = _graded_integral(lo, hi, *got)
                vals[n] = res.value
                if res.divergence_flag:
                    ess_inf = "undecided"
            evidence = {"full_interval_integrals": vals}

    return SpectralityReport(
        modulus_equal=modulus_equal, diophantine=verdict,
        asymptotically_spectral=spectral, singularities=singular, ess=ess,
        ess_at_infinity=ess_inf, expansion_form=expansion_form(pot),
        alpha=alpha_val, alpha_exact=alpha_exact, notes=notes,
        ess_at_infinity_evidence=evidence)
