"""Bloch-coefficient computation and spectral reconstruction of test functions.

All real-line integrals are eliminated through the closed-form Fourier
transform of the test function: since Psi*_{n,t} is a finite combination
of e^{i(2 pi k + t)x}, the projection integral becomes a weighted sum of
transform samples at the frequencies 2 pi k + t.  Reconstruction then
quadratures a_n(t) Psi_{n,t}(x) over quasimomentum per the active
expansion form; in the endpoint-paired form each pair is summed before it
is sampled, because the members are only jointly integrable through the
collision points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import floquet as flq
from . import spectrality as spc
from .errors import FormMismatchError, SimplenessError, ValidationError
from .potential import MathieuPotential, T_VALID

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# Test functions with exact transforms (convention: fhat(xi) = int f e^{-i xi x})
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Descriptor-based test function with a closed-form transform.

    kinds: 'gaussian' (center, width), 'gaussian-modulated' (plus
    frequency), 'compact-bump' ((1-u^2)^3 profile on |x-center| <= width).
    """

    __test__ = False  # not a pytest collection target

    kind: str
    center: float = 0.0
    width: float = 1.0
    frequency: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "gaussian-modulated", "compact-bump"):
            raise ValidationError(f"unknown test function kind {self.kind!r}")
        if self.width <= 0:
            raise ValidationError("width must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.width
        if self.kind == "compact-bump":
            prof = np.where(np.abs(u) < 1.0, (1.0 - u ** 2) ** 3, 0.0)
            return prof.astype(complex)
        g = np.exp(-0.5 * u ** 2).astype(complex)
        if self.kind == "gaussian-modulated":
            g = g * np.exp(1j * self.frequency * x)
        return g

    def transform(self, xi):
        """fhat(xi) = int f(x) e^{-i xi x} dx, exact."""
        scalar = np.ndim(xi) == 0
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.kind == "compact-bump":
            nu = self.width * xi
            out = self.width * np.exp(-1j * xi * self.center) \
                * _bump_profile_transform(nu)
        else:
            shift = xi - (self.frequency
                          if self.kind == "gaussian-modulated" else 0.0)
            out = (self.width * math.sqrt(TWO_PI)
                   * np.exp(-0.5 * (self.width * shift) ** 2)
                   * np.exp(-1j * shift * self.center))
        return complex(out[0]) if scalar else out

    def norm_sq(self) -> float:
        """||f||^2 over the real line."""
        if self.kind == "compact-bump":
            return self.width * 2048.0 / 3003.0
        return self.width * math.sqrt(math.pi)


def _bump_profile_transform(nu):
    """int_{-1}^{1} (1-u^2)^3 e^{-i nu u} du (real and even in nu)."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    out = np.empty_like(nu)
    small = np.abs(nu) < 0.5
    ns = nu[small]
    n2 = ns * ns
    out[small] = (32.0 / 35.0 - 16.0 * n2 / 315.0 + 4.0 * n2 ** 2 / 3465.0
                  - 2.0 * n2 ** 3 / 135135.0 + n2 ** 4 / 8108100.0)
    nb = nu[~small]
    out[~small] = 96.0 * (nb ** 3 * np.cos(nb) - 6.0 * nb ** 2 * np.sin(nb)
                          - 15.0 * nb * np.cos(nb) + 15.0 * np.sin(nb)) / nb ** 7
    return out


# --------------------------------------------------------------------------
# Coefficients
# --------------------------------------------------------------------------

def coefficient_from_vectors(f: TestFunction, t: float, ks: np.ndarray,
                             vec: np.ndarray, adj_vec: np.ndarray) -> complex:
    """a_n(t) from explicit coefficient vectors of Psi and Psi*.

    a_n(t) = <fhat, c*> / <c, c*> with <x, y> = sum x_k conj(y_k); the
    combination is invariant under independent phase rescalings of either
    vector, which pins down where the conjugations go.
    """
    fhat = f.transform(TWO_PI * ks + t)
    num = complex(np.vdot(adj_vec, fhat))
    den = complex(np.vdot(adj_vec, vec))
    if den == 0:
        raise SimplenessError("vanishing pairing <Psi, Psi*>")
    return num / den


def bloch_coefficient(pot: MathieuPotential, f: TestFunction, n: int, t: float,
                      solver: Optional[flq.BandSolver] = None) -> complex:
    """Expansion coefficient a_n(t) of f along band n."""
    if solver is None:
        solver = spc.make_solver(pot, abs(n) + 1)
    lam, v, w, status = solver.band(t, n)
    if status != "simple":
        raise SimplenessError(f"band {n} at t={t!r} is {status}")
    return coefficient_from_vectors(f, t, solver.ks, v, w)


# --------------------------------------------------------------------------
# Expansion plans and reconstruction
# --------------------------------------------------------------------------

@dataclass
class ExpansionPlan:
    """Which expansion form to quadrature, and its discretization knobs."""

    form: str
    n_max: int
    h: float = 0.02
    panels_per_half: int = 16
    gl_points: int = 12
    pair_depth: int = 10
    allow_mismatch: bool = False

    def __post_init__(self):
        if self.form not in (spc.ELEGANT, spc.ASYMPTOTICALLY_ELEGANT,
                             spc.GASYMOV):
            raise ValidationError(f"unknown expansion form {self.form!r}")
        if not (0.0 < self.h < T_VALID):
            raise ValidationError(
                f"pairing half-width must sit in (0, {T_VALID:.6f})")
        if self.n_max < 1:
            raise ValidationError("n_max must be >= 1")

    @property
    def pairing(self) -> dict:
        """Band groupings through the endpoint windows of the paired form."""
        return {"zero": [(n, -n) for n in range(1, self.n_max + 1)],
                "pi": [(n, -n - 1) for n in range(0, self.n_max + 1)]}


def make_plan(pot: MathieuPotential, n_max: int, form: Optional[str] = None,
              h: float = 0.02, **knobs) -> ExpansionPlan:
    """Build a plan; the form defaults to the classifier's verdict."""
    if form is None:
        form = spc.classify_operator(pot).expansion_form
    return ExpansionPlan(form=form, n_max=n_max, h=h, **knobs)


def _gl(npts):
    return np.polynomial.legendre.leggauss(npts)


def _uniform_nodes(lo: float, hi: float, panels: int, gl_pts: int):
    gx, gw = _gl(gl_pts)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _dyadic_nodes(center: float, h: float, depth: int, gl_pts: int,
                  side: int):
    """Nodes on [center, center+h] (side=+1) or [center-h, center]
    refining geometrically toward the center; the innermost panel closes
    the tiling, so only the center itself is never sampled."""
    gx, gw = _gl(gl_pts)
    offs = h * 0.5 ** np.arange(depth + 1)
    edges = np.concatenate([[0.0], offs[::-1]])
    nodes, weights = [], []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        half = 0.5 * (e1 - e0)
        mid = 0.5 * (e0 + e1)
        nodes.append(center + side * (mid + half * gx))
        weights.append(half * gw)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass
class ResidualReport:
    """Reconstruction error summary over the evaluation points."""

    form: str
    n_max: int
    h: Optional[float]
    max_residual: float
    mean_residual: float
    per_point: List[dict]
    skipped_nodes: int = 0

    def to_dict(self) -> dict:
        d = {"schema_version": 1, "form": self.form, "n_max": self.n_max,
             "max_residual": self.max_residual,
             "mean_residual": self.mean_residual,
             "per_point": self.per_point,
             "skipped_nodes": self.skipped_nodes}
        if self.h is not None:
            d["h"] = self.h
        return d


class _Accumulator:
    def __init__(self, pot, f, solver, x):
        self.pot = pot
        self.f = f
        self.solver = solver
        self.x = np.asarray(x, dtype=float)
        self.total = np.zeros(len(self.x), dtype=complex)
        self.skipped = 0

    def _band_term(self, t, n):
        lam, v, w, status = self.solver.band(t, n)
        if status != "simple":
            return None
        a = coefficient_from_vectors(self.f, t, self.solver.ks, v, w)
        freqs = TWO_PI * self.solver.ks + t
        psi = np.exp(1j * np.outer(self.x, freqs)) @ v
        return a * psi

    def add_single(self, nodes, weights, bands):
        for t, wt in zip(nodes, weights):
            for n in bands:
                term = self._band_term(float(t), n)
                if term is None:
                    self.skipped += 1
                    continue
                self.total += wt * term

    def add_pairs(self, nodes, weights, pairs):
        """Pairs are summed per node before weighting: the members are
        only jointly integrable through a collision."""
        for t, wt in zip(nodes, weights):
            for (n1, n2) in pairs:
                t1 = self._band_term(float(t), n1)
                t2 = self._band_term(float(t), n2)
                if t1 is None or t2 is None:
                    self.skipped += 1
                    continue
                self.total += wt * (t1 + t2)


def reconstruct(pot: MathieuPotential, f: TestFunction, plan: ExpansionPlan,
                eval_points: Sequence[float],
                solver: Optional[flq.BandSolver] = None) -> ResidualReport:
    """Quadrature the active expansion form and report the residual.

    Term-by-term over (-pi, pi] for the plain form; the grouped form sums
    the flagged bands inside one integral (identical samples, grouped
    bookkeeping); the endpoint-paired form splits the circle into the two
    pairing windows around 0 and pi plus the bulk.
    """
    if not plan.allow_mismatch:
        verdict = spc.expansion_form(pot)
        if verdict != plan.form:
            raise FormMismatchError(
                f"plan form {plan.form!r} vs classified {verdict!r}; "
                "set allow_mismatch to override")
    if solver is None:
        solver = spc.make_solver(pot, plan.n_max + 1)
    acc = _Accumulator(pot, f, solver, eval_points)
    bands = list(range(-plan.n_max, plan.n_max + 1))

    # every negative node is the exact negation of a positive one, so the
    # solver reads its eigenpairs off the positive node by reflection
    if plan.form in (spc.ELEGANT, spc.ASYMPTOTICALLY_ELEGANT):
        nodes, weights = _uniform_nodes(0.0, math.pi, plan.panels_per_half,
                                        plan.gl_points)
        acc.add_single(-nodes[::-1], weights[::-1], bands)
        acc.add_single(nodes, weights, bands)
    else:
        h = plan.h
        # pairing window around 0: n = 0 alone plus (n, -n) pairs
        for side in (+1, -1):
            nodes, weights = _dyadic_nodes(0.0, h, plan.pair_depth,
                                           plan.gl_points, side)
            acc.add_single(nodes, weights, [0])
            acc.add_pairs(nodes, weights, plan.pairing["zero"])
        # pairing window around pi: (n, -n-1); the beyond-pi half lives at
        # quasimomenta just above -pi after 2 pi reduction
        pi_pairs = plan.pairing["pi"]
        nodes, weights = _dyadic_nodes(math.pi, h, plan.pair_depth,
                                       plan.gl_points, -1)
        acc.add_pairs(nodes, weights, pi_pairs)
        nodes, weights = _dyadic_nodes(-math.pi, h, plan.pair_depth,
                                       plan.gl_points, +1)
        acc.add_pairs(nodes, weights, pi_pairs)
        # bulk
        nodes, weights = _uniform_nodes(h, math.pi - h, plan.panels_per_half,
                                        plan.gl_points)
        acc.add_single(nodes, weights, bands)
        acc.add_single(-nodes[::-1], weights[::-1], bands)

    rec = acc.total / TWO_PI
    truth = f(acc.x)
    scale = float(np.max(np.abs(truth)))
    if scale == 0.0:
        scale = 1.0
    resid = np.abs(rec - truth) / scale
    per_point = [{"x": float(xx), "residual": float(rr)}
                 for xx, rr in zip(acc.x, resid)]
    return ResidualReport(form=plan.form, n_max=plan.n_max,
                          h=plan.h if plan.form == spc.GASYMOV else None,
                          max_residual=float(np.max(resid)),
                          mean_residual=float(np.mean(resid)),
                          per_point=per_point, skipped_nodes=acc.skipped)
