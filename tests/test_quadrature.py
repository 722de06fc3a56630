"""The quadrature layer: reference rules, the composite builder, and the
node layouts and accumulation that the expansion and the projection-norm
integrals build on it."""

import math
from pathlib import Path

import numpy as np
import pytest

import mathieuspec
from mathieuspec import (ExpansionPlan, MathieuPotential,
                         MultipleEigenvalueError, TestFunction,
                         coefficient_from_vectors, make_plan, make_solver,
                         reconstruct)
import mathieuspec.discriminant as disc
from mathieuspec import expansion as exp_mod
from mathieuspec._quadrature import GK15

TWO_PI = 2.0 * math.pi
PI = math.pi


# --------------------------------------------------------------------------
# References: the per-module rules the quadrature layer replaced
# --------------------------------------------------------------------------

def _norm_sq_grid():
    gx, gw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, 1.0, 513)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    return xs, ws


def _uniform_nodes(lo, hi, panels, gl_pts):
    gx, gw = np.polynomial.legendre.leggauss(gl_pts)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _dyadic_nodes(center, h, depth, gl_pts, side):
    gx, gw = np.polynomial.legendre.leggauss(gl_pts)
    offs = h * 0.5 ** np.arange(depth + 1)
    edges = np.concatenate([[0.0], offs[::-1]])
    nodes, weights = [], []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        half = 0.5 * (e1 - e0)
        mid = 0.5 * (e0 + e1)
        nodes.append(center + side * (mid + half * gx))
        weights.append(half * gw)
    return np.concatenate(nodes), np.concatenate(weights)


def _old_passes(plan):
    """(nodes, weights) of every pass as reconstruct laid them out with
    the per-module rules, in the same order as ``expansion._passes``."""
    p, g = plan.panels_per_half, plan.gl_points
    if plan.form != "Gasymov":
        nodes, weights = _uniform_nodes(0.0, PI, p, g)
        return [(-nodes[::-1], weights[::-1]), (nodes, weights)]
    h, d = plan.h, plan.pair_depth
    bulk, bulkw = _uniform_nodes(h, PI - h, p, g)
    return [_dyadic_nodes(0.0, h, d, g, +1), _dyadic_nodes(0.0, h, d, g, -1),
            _dyadic_nodes(PI, h, d, g, -1), _dyadic_nodes(-PI, h, d, g, +1),
            (bulk, bulkw), (-bulk[::-1], bulkw[::-1])]


class _PerBandAccumulator:
    """Reference: the accumulator that resolved, transformed and
    exponentiated every band of every node on its own."""

    def __init__(self, f, solver, x, dense_band):
        self.f = f
        self.solver = solver
        self.dense_band = dense_band
        self.x = np.asarray(x, dtype=float)
        self.total = np.zeros(len(self.x), dtype=complex)
        self.skipped = 0

    def _band_term(self, t, n):
        try:
            primal, partner = self.dense_band(self.solver, t, n)
        except MultipleEigenvalueError:
            return None
        v, w = primal.coeffs, partner.coeffs
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
        for t, wt in zip(nodes, weights):
            for (n1, n2) in pairs:
                t1 = self._band_term(float(t), n1)
                t2 = self._band_term(float(t), n2)
                if t1 is None or t2 is None:
                    self.skipped += 1
                    continue
                self.total += wt * (t1 + t2)


# --------------------------------------------------------------------------
# Reference rules
# --------------------------------------------------------------------------

class TestRules:
    @staticmethod
    def _monomial_errors(nodes, weights, degrees):
        return [abs(weights @ nodes ** d - (1 - (-1) ** (d + 1)) / (d + 1))
                for d in degrees]

    def test_kronrod_exact_through_degree_22(self):
        x, wk, _ = GK15
        assert max(self._monomial_errors(x, wk, range(23))) <= 1e-15

    def test_embedded_gauss_exact_through_degree_13(self):
        x, _, wg = GK15
        assert max(self._monomial_errors(x, wg, range(14))) <= 1e-15
        # and no further: G7 is not the Kronrod rule under another name
        assert self._monomial_errors(x, wg, [14])[0] > 1e-6

    def test_embedded_gauss_is_gauss_legendre_7(self):
        x, _, wg = GK15
        gx, gw = np.polynomial.legendre.leggauss(7)
        on = wg != 0
        assert on.sum() == 7
        assert np.max(np.abs(x[on] - gx)) <= 3e-16
        assert np.max(np.abs(wg[on] - gw)) <= 3e-16

    def test_rules_live_in_one_module(self):
        # leggauss and the Kronrod constants appear nowhere else in src/
        markers = ("leggauss", "0.991455371120812", "0.0229353220105292",
                   "0.129484966168869")
        holders = {p.name for p in
                   Path(mathieuspec.__file__).parent.glob("*.py")
                   if any(m in p.read_text() for m in markers)}
        assert holders == {"_quadrature.py"}


# --------------------------------------------------------------------------
# Composite builder against the layouts it replaced
# --------------------------------------------------------------------------

def _within_ulp(got, want):
    return bool(np.all(np.abs(got - want) <= np.spacing(np.abs(want))))


class TestCompositeLayouts:
    def test_norm_grid_bit_for_bit(self):
        xs, ws = _norm_sq_grid()
        assert np.array_equal(disc._NORM_XS, xs)
        assert np.array_equal(disc._NORM_WS, ws)

    @pytest.mark.parametrize("plan", [
        ExpansionPlan(form="Elegant", n_max=4),
        ExpansionPlan(form="AsymptoticallyElegant", n_max=3,
                      panels_per_half=5, gl_points=7),
        ExpansionPlan(form="Gasymov", n_max=4),
        ExpansionPlan(form="Gasymov", n_max=2, h=0.015, pair_depth=6,
                      panels_per_half=7, gl_points=9),
    ])
    def test_expansion_passes_match_old_nodes(self, plan):
        new = exp_mod._passes(plan)
        old = _old_passes(plan)
        assert len(new) == len(old)
        for (nodes, weights, _), (want_n, want_w) in zip(new, old):
            assert _within_ulp(nodes, want_n)
            assert _within_ulp(weights, want_w)

    @pytest.mark.parametrize("form", ["Elegant", "Gasymov"])
    def test_negative_nodes_negate_positive_ones(self, form):
        plan = ExpansionPlan(form=form, n_max=4)
        nodes = np.concatenate([p[0] for p in exp_mod._passes(plan)])
        assert not np.any(nodes == 0.0)
        pos = np.sort(nodes[nodes > 0])
        neg = np.sort(-nodes[nodes < 0])
        assert np.array_equal(pos, neg)


# --------------------------------------------------------------------------
# One accumulation per node against the per-band reference
# --------------------------------------------------------------------------

# one potential per benchmark class: self-adjoint, equal moduli, unequal
# moduli (|ab| > 16/9, the grouped form) and one-sided (endpoint pairs)
BENCH_CLASSES = {
    "sa": (0.5025886253061008 - 0.16168359416589173j,
           0.5025886253061008 + 0.16168359416589173j),
    "eq": (0.5630686690634059 - 0.188249341635913j,
           -0.43571869411525155 + 0.4032782665922996j),
    "un": (0.8376456348484289 + 0.14651318151296733j,
           -2.9177297344498583 - 0.7129705044539645j),
    "os": (0j, 0.1984015861053919 - 0.8056621698921916j),
}


@pytest.mark.parametrize("klass", sorted(BENCH_CLASSES))
def test_accumulator_matches_per_band_reference(dense_band, klass):
    pot = MathieuPotential(*BENCH_CLASSES[klass])
    plan = make_plan(pot, 4)
    assert (plan.form == "Gasymov") == (klass == "os")
    solver = make_solver(pot, plan.n_max + 1)
    f = TestFunction("gaussian", center=0.0, width=1.0)
    xs = np.linspace(-2.0, 2.0, 9)
    rep = reconstruct(pot, f, plan, xs, solver=solver)

    ref = _PerBandAccumulator(f, solver, xs, dense_band)
    for (nodes, weights, groups) in exp_mod._passes(plan):
        ref.add_single(nodes, weights, [g[0] for g in groups if len(g) == 1])
        ref.add_pairs(nodes, weights, [g for g in groups if len(g) == 2])
    truth = f(xs)
    want = np.abs(ref.total / TWO_PI - truth) / np.max(np.abs(truth))
    got = np.array([p["residual"] for p in rep.per_point])
    assert np.max(np.abs(got - want)) <= 1e-13
    assert rep.skipped_nodes == ref.skipped
    if klass == "os":
        assert ref.skipped > 0


def _per_node_total(f, solver, xs, plan):
    """(total, skipped groups) of the passes summed node by node: each
    node's live groups, coefficients and e^{i x (2 pi k + t)} on their own,
    with the mirrored passes resolved together as ``reconstruct`` does."""
    passes = exp_mod._passes(plan)
    total, skipped = np.zeros(len(xs), dtype=complex), 0
    for (n1, w1, groups), (n2, w2, _) in zip(passes[::2], passes[1::2]):
        nodes, weights = np.concatenate([n1, n2]), np.concatenate([w1, w2])
        bands = sorted({n for g in groups for n in g})
        got = solver.bands(nodes, bands)
        for j, (t, wt) in enumerate(zip(nodes, weights)):
            live = [g for g in groups
                    if all(got.ok[j, bands.index(n)] for n in g)]
            skipped += len(groups) - len(live)
            if not live:
                continue
            cols = [bands.index(n) for g in live for n in g]
            v, w = got.right[j][:, cols], got.left[j][:, cols]
            a = coefficient_from_vectors(f, float(t), solver.ks, v, w)
            psi = np.exp(1j * np.outer(xs, TWO_PI * solver.ks + t)) @ v
            total += wt * (psi @ a)
    return total, skipped


@pytest.mark.parametrize("klass", ["un", "os"])
@pytest.mark.parametrize("chunk", [1, 50, 64])
def test_accumulator_chunks_sum_alike(monkeypatch, klass, chunk):
    # the passes hold 384 nodes (and 264 in the paired form's windows),
    # so chunks of 50, and of 64 in the paired form, end on a partial one;
    # the one-sided potential has dead pairs near t = 0 and pi
    pot = MathieuPotential(*BENCH_CLASSES[klass])
    plan = make_plan(pot, 4)
    solver = make_solver(pot, plan.n_max + 1)
    f = TestFunction("gaussian", center=0.0, width=1.0)
    xs = np.linspace(-2.0, 2.0, 9)
    want, skipped = _per_node_total(f, solver, xs, plan)
    monkeypatch.setattr(exp_mod, "NODE_CHUNK", chunk)
    acc = exp_mod._Accumulator(f, solver, xs)
    passes = exp_mod._passes(plan)
    for (n1, w1, groups), (n2, w2, _) in zip(passes[::2], passes[1::2]):
        acc.add(np.concatenate([n1, n2]), np.concatenate([w1, w2]), groups)
    assert np.max(np.abs(acc.total - want)) <= 1e-13 * np.max(np.abs(want))
    assert acc.skipped == skipped
    assert (skipped > 0) == (klass == "os")
