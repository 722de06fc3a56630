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
from ._quadrature import composite, gauss_legendre
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

def coefficient_from_vectors(f: TestFunction, t, ks: np.ndarray,
                             vec: np.ndarray, adj_vec: np.ndarray,
                             live=None):
    """a_n(t) from explicit coefficient vectors of Psi and Psi*.

    a_n(t) = <fhat, c*> / <c, c*> with <x, y> = sum x_k conj(y_k); the
    combination is invariant under independent phase rescalings of either
    vector, which pins down where the conjugations go.  Given columns of
    several bands (arrays shaped (len(ks), bands)), it returns one
    coefficient per column from one transform of f; given an array of
    nodes ``t``, the vectors take the node axis first ((nodes, len(ks))
    or (nodes, len(ks), bands)) and f is transformed once on the
    (node, k) grid.  ``live``, shaped like the result, marks the
    coefficients wanted: the others are 0, and only a live pairing that
    vanishes raises.
    """
    fhat = f.transform(TWO_PI * ks + np.asarray(t, dtype=float)[..., None])
    adj = np.conj(adj_vec)
    single = adj.ndim == fhat.ndim
    if single:
        adj, vec = adj[..., None], vec[..., None]
    num = np.einsum("...kc,...k->...c", adj, fhat)
    den = np.einsum("...kc,...kc->...c", adj, vec)
    if single:
        num, den = num[..., 0], den[..., 0]
    live = np.ones(den.shape, dtype=bool) if live is None else live
    if np.any(live & (den == 0)):
        raise SimplenessError("vanishing pairing <Psi, Psi*>")
    a = np.divide(num, den, out=np.zeros_like(num), where=live)
    return complex(a) if np.ndim(a) == 0 else a


def bloch_coefficient(pot: MathieuPotential, f: TestFunction, n: int, t: float,
                      solver: Optional[flq.BandSolver] = None) -> complex:
    """Expansion coefficient a_n(t) of f along band n."""
    if solver is None:
        solver = spc.make_solver(pot, abs(n) + 1)
    got = solver.bands([t], [n])
    if not got.ok[0, 0]:
        raise SimplenessError(f"band {n} at t={t!r} is not resolvably simple")
    return coefficient_from_vectors(f, float(got.t[0]), solver.ks,
                                    got.right[0, :, 0], got.left[0, :, 0])


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
    """Build a plan; the form defaults to ``spectrality.expansion_form``."""
    if form is None:
        form = spc.expansion_form(pot)
    return ExpansionPlan(form=form, n_max=n_max, h=h, **knobs)


def _window(edges, rule):
    """Flat (nodes, weights) of ``rule`` on the panels between ``edges``."""
    nodes, weights = composite(edges, *rule)
    return nodes.ravel(), weights.ravel()


def _passes(plan: ExpansionPlan):
    """(nodes, weights, band groups) of every quadrature pass of the plan.

    Term-by-term over (-pi, pi] for the plain and grouped forms; the
    endpoint-paired form splits the circle into the two pairing windows
    around 0 and pi plus the bulk.  The passes come in mirrored pairs with
    the same groups: every node of the second is the exact negation of one
    of the first, so the solver reads its eigenpairs off the positive node
    by reflection.
    """
    rule = gauss_legendre(plan.gl_points)
    singles = [(n,) for n in range(-plan.n_max, plan.n_max + 1)]
    if plan.form in (spc.ELEGANT, spc.ASYMPTOTICALLY_ELEGANT):
        nodes, weights = _window(np.linspace(0.0, math.pi,
                                             plan.panels_per_half + 1), rule)
        return [(-nodes[::-1], weights[::-1], singles),
                (nodes, weights, singles)]
    h = plan.h
    # offsets from a window's center, refining geometrically toward it;
    # the innermost panel closes the tiling, so only the center itself is
    # never sampled
    offs, offw = _window(np.concatenate(
        [[0.0], h * 0.5 ** np.arange(plan.pair_depth, -1, -1)]), rule)
    # around 0: n = 0 alone plus (n, -n) pairs; around pi: (n, -n-1), whose
    # beyond-pi half lives just above -pi after 2 pi reduction
    zero = [(0,)] + plan.pairing["zero"]
    pi_pairs = plan.pairing["pi"]
    bulk, bulkw = _window(np.linspace(h, math.pi - h,
                                      plan.panels_per_half + 1), rule)
    return [(offs, offw, zero), (-offs, offw, zero),
            (math.pi - offs, offw, pi_pairs),
            (-(math.pi - offs), offw, pi_pairs),
            (bulk, bulkw, singles), (-bulk[::-1], bulkw[::-1], singles)]


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
    batch_pairs: int = 0
    endpoint_pairs: int = 0
    endpoint_solves: int = 0

    def to_dict(self) -> dict:
        d = {"schema_version": 1, "form": self.form, "n_max": self.n_max,
             "max_residual": self.max_residual,
             "mean_residual": self.mean_residual,
             "per_point": self.per_point,
             "skipped_nodes": self.skipped_nodes,
             "batch_pairs": self.batch_pairs,
             "endpoint_pairs": self.endpoint_pairs,
             "endpoint_solves": self.endpoint_solves}
        if self.h is not None:
            d["h"] = self.h
        return d


#: Quadrature nodes whose coefficients and sums ``_Accumulator.add`` forms
#: at once: it bounds the (node, k, band) temporaries.
NODE_CHUNK = 64


class _Accumulator:
    def __init__(self, f, solver, x):
        self.f = f
        self.solver = solver
        self.x = np.asarray(x, dtype=float)
        self.total = np.zeros(len(self.x), dtype=complex)
        self.skipped = 0
        self.batch_pairs = 0
        self.endpoint_pairs = 0
        self.endpoint_solves = 0

    def add(self, nodes, weights, groups):
        """Add every group's terms a_n(t) Psi_{n,t}(x) at each node.

        A group is one band, or an endpoint pair whose members are summed
        before the pair is weighted: they are only jointly integrable
        through a collision.  A group with an unresolvable member is
        skipped; the groups share no band.  All pairs come from one
        ``BandSolver.bands`` call.  With Psi_{n,t}(x) = e^{ixt} sum_k
        c_k e^{2 pi i k x}, the pass sums, ``NODE_CHUNK`` nodes at a time,
        coef_k = sum_n a_n c_k of each node and then
        sum_j w_j e^{i x t_j} sum_k e^{2 pi i k x} coef_k(t_j): one
        transform of f on the (node, k) grid and one e^{2 pi i k x} per
        pass serve every band of every node.
        """
        ks = self.solver.ks
        bands = sorted({n for g in groups for n in g})
        member = np.array([[n in g for n in bands] for g in groups])
        got = self.solver.bands(nodes, bands)
        self.batch_pairs += int(np.sum(~got.endpoint))
        self.endpoint_pairs += int(np.sum(got.endpoint))
        self.endpoint_solves += got.endpoint_solves
        live = ~((~got.ok) @ member.T)              # [node, group]
        self.skipped += int(np.sum(~live))
        live = live @ member                        # [node, band]
        waves = np.exp(1j * np.outer(self.x, TWO_PI * ks))
        nodes = np.asarray(nodes, dtype=float)
        for lo in range(0, len(nodes), NODE_CHUNK):
            part = slice(lo, lo + NODE_CHUNK)
            a = coefficient_from_vectors(self.f, nodes[part], ks,
                                         got.right[part], got.left[part],
                                         live[part])
            coef = np.einsum("jkc,jc->kj", got.right[part], a)
            self.total += (np.exp(1j * np.outer(self.x, nodes[part]))
                           * (waves @ coef)) @ weights[part]


def reconstruct(pot: MathieuPotential, f: TestFunction, plan: ExpansionPlan,
                eval_points: Sequence[float],
                solver: Optional[flq.BandSolver] = None) -> ResidualReport:
    """Quadrature the active expansion form and report the residual.

    Term-by-term over (-pi, pi] for the plain form; the grouped form sums
    the flagged bands inside one integral (identical samples, grouped
    bookkeeping); the endpoint-paired form splits the circle into the two
    pairing windows around 0 and pi plus the bulk (``_passes``).
    """
    if not plan.allow_mismatch:
        verdict = spc.expansion_form(pot)
        if verdict != plan.form:
            raise FormMismatchError(
                f"plan form {plan.form!r} vs classified {verdict!r}; "
                "set allow_mismatch to override")
    if solver is None:
        solver = spc.make_solver(pot, plan.n_max + 1)
    acc = _Accumulator(f, solver, eval_points)
    # a window's two mirrored passes go to the solver as one node list, so
    # each |t| is resolved once; the nodes keep their order
    passes = _passes(plan)
    for (n1, w1, groups), (n2, w2, _) in zip(passes[::2], passes[1::2]):
        acc.add(np.concatenate([n1, n2]), np.concatenate([w1, w2]), groups)

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
                          per_point=per_point, skipped_nodes=acc.skipped,
                          batch_pairs=acc.batch_pairs,
                          endpoint_pairs=acc.endpoint_pairs,
                          endpoint_solves=acc.endpoint_solves)
