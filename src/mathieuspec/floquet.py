"""Truncated Fourier representation of the quasimomentum family H_t(a, b).

In the basis e^{i(2 pi k + t)x}, k = -M..M, the operator is tridiagonal:
row k reads (2 pi k + t)^2 c_k + a c_{k+1} + b c_{k-1} = lambda c_k.  Its
conjugate transpose is the adjoint family's, (a, b) -> (conj b, conj a),
so left eigenvectors are the adjoint eigenfunctions; every two-sided
eigensolve reads them off the right ones in one gauge (``_gauge``).

Eigenvalue curves are numbered so that lambda_n(t) ~ (2 pi n + t)^2 at the
mid-zone anchor t = pi/2 and continued by nearest-distance assignment,
with lambda_n(-t) = lambda_n(t) extending them to negative quasimomentum.
The tracking solves eigenvalues only.  A labelled eigenpair takes one of
three routes, chosen from the input (``BandSolver.bands``): the closed form
of a one-sided potential (ab = 0), the two parity blocks at the
two-periodic endpoints t = 0 and +-pi (``endpoint_spectrum``), and a batch
of inverse iteration at every other t.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, TrackingAmbiguityError, ValidationError
from .potential import MathieuPotential, RHO_PAIRING

TWO_PI = 2.0 * math.pi

#: Relative gap below which eigenvalues are treated as one cluster.
CLUSTER_RTOL = 1e-7

#: Grid refinement rounds ``track_curves`` spends on ambiguous matchings.
REFINE_CAP = 6

#: Slack past pi for a quasimomentum: the tracking grid's, read as pi.
PI_SLACK = 1e-12

#: ``stable_m``'s check: quasimomentum, relative eigenvalue drift, and the
#: largest truncation tried.
STABLE_T = 1.0
STABLE_RTOL = 1e-9
M_CAP = 512


def free_lambda(n: int, t: float) -> float:
    """Unperturbed eigenvalue (2 pi n + |t|)^2 used as labeling reference."""
    return (TWO_PI * n + abs(t)) ** 2


def default_m(n_max: int) -> int:
    """Half-bandwidth heuristic: nearest-neighbor coupling decays fast."""
    return max(2 * n_max + 16, 32)


@dataclass
class TruncatedOperator:
    """Tridiagonal truncation of H_t on Fourier indices k = -M..M."""

    t: float
    M: int
    diag: np.ndarray
    super: complex  # couples c_{k+1} into row k
    sub: complex    # couples c_{k-1} into row k

    @property
    def size(self) -> int:
        return 2 * self.M + 1

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.diag)) + abs(self.super) + abs(self.sub))

    def index(self, k: int) -> int:
        if abs(k) > self.M:
            raise IndexError(f"Fourier index {k} outside truncation |k|<={self.M}")
        return k + self.M

    def to_dense(self) -> np.ndarray:
        n = self.size
        a = np.zeros((n, n), dtype=complex)
        np.fill_diagonal(a, self.diag)
        if n > 1:
            a[np.arange(n - 1), np.arange(1, n)] = self.super
            a[np.arange(1, n), np.arange(n - 1)] = self.sub
        return a

    def apply(self, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """A V (or A^H V) for a matrix V of columns, from the diagonals."""
        diag, sup, sub = self.diag, self.super, self.sub
        if adjoint:
            diag, sup, sub = np.conj(diag), np.conj(sub), np.conj(sup)
        return _product(diag[:, None], sup, sub,
                        v.astype(complex, copy=False))

    @property
    def is_hermitian(self) -> bool:
        return bool(np.isrealobj(self.diag)
                    and self.sub == np.conj(self.super))


def _product(diag: np.ndarray, sup: complex, sub: complex,
             v: np.ndarray) -> np.ndarray:
    """Tridiagonal products column by column: column p of ``v`` times the
    matrix with diagonal ``diag[:, p]`` (or ``diag``, broadcast) and the
    constant couplings ``sup`` above and ``sub`` below it."""
    out = diag * v
    out[:-1] += sup * v[1:]
    out[1:] += sub * v[:-1]
    return out


def _certificate(scale):
    """The residual an eigenpair may have at this matrix scale."""
    return 1e-8 * np.maximum(scale, 1.0)


def _scale(pot: MathieuPotential, ts, M: int):
    """``assemble(pot, t, M).scale`` at each t of ``ts``, bit for bit,
    without assembling: the largest diagonal entry is (2 pi M + |t|)^2."""
    return ((TWO_PI * M + np.abs(ts)) ** 2 + abs(complex(pot.a))
            + abs(complex(pot.b)))


def assemble(pot: MathieuPotential, t: float, M: int) -> TruncatedOperator:
    """Build the truncated operator; M >= 4 so the window brackets a band."""
    if M < 4:
        raise ValidationError("truncation half-bandwidth M must be >= 4")
    ks = np.arange(-M, M + 1)
    diag = (TWO_PI * ks + t).astype(float) ** 2
    return TruncatedOperator(t=float(t), M=int(M), diag=diag,
                             super=complex(pot.a), sub=complex(pot.b))


def _gauge(a: complex, b: complex) -> Tuple[complex, complex]:
    """(s, g): c_k -> s^-k c_k, s = a/g, takes the couplings a above and b
    below the diagonal to g = sqrt(a) sqrt(b), g^2 = ab, which unlike ab
    over- or underflows only where a or b does; g > 0 when ab > 0.  The
    gauged matrix is complex symmetric, so its left eigenvectors are its
    right ones (Craven, J. Austral. Math. Soc. 10 (1969))."""
    g = cmath.sqrt(a) * cmath.sqrt(b)
    if (a * b).imag == 0 < (a * b).real:
        g = complex(abs(g))
    return a / g, g


def _ungauge(s: complex, ks: np.ndarray, v: np.ndarray):
    """(x, y): the unit right eigenvector columns x = s^-k v of H_t and
    their adjoint partners y = conj(s^k v), from eigenvector columns ``v``
    of the gauged matrix on the Fourier indices ``ks``.  The gauge factors
    are taken relative to their largest and each column to its largest
    entry, so an extreme |a/b| underflows far entries and overflows none."""
    with np.errstate(all="ignore"):
        e = -np.log(s) * ks[:, None]
        x = v * np.exp(e - e.real.max())
        y = np.conj(v * np.exp(e.real.min() - e))
        for w in (x, y):
            w /= np.abs(w).max(axis=0)
            w /= np.linalg.norm(w, axis=0)
    return x, y


def _residuals(diag, a: complex, b: complex, lam, x, y, padded=False):
    """The residual norms of right columns ``x`` (for ``lam``) and adjoint
    columns ``y`` of the matrix with diagonal columns ``diag`` and the
    couplings a above and b below it; ``padded`` adds the rows +-(K + 1)
    of the M-truncation that a window k = -K..K narrower than M drops."""
    r = _product(diag, a, b, x) - lam * x
    left = _product(diag, np.conj(b), np.conj(a), y) - np.conj(lam) * y
    if padded:
        r = np.vstack([r, b * x[-1], a * x[0]])
        left = np.vstack([left, a * y[-1], b * y[0]])
    return np.linalg.norm(r, axis=0), np.linalg.norm(left, axis=0)


def _linked(la, lb, ma, mb, rtol: float):
    """The cluster link |l_a - l_b| < rtol*(1 + min(|l_a|, |l_b|)).

    The gap threshold scales with the eigenvalue magnitude, not the matrix
    norm: tridiagonal eigenvalues come out far more accurately than the
    worst-case eps*||A|| bound, and a global threshold would smear whole
    near-endpoint neighborhoods into fake clusters as M grows.
    """
    return np.abs(la - lb) < rtol * (1.0 + np.minimum(ma, mb))


# --------------------------------------------------------------------------
# The two-periodic endpoints t = 0 and pi
# --------------------------------------------------------------------------

@dataclass
class EndpointSpectrum:
    """Eigenpairs of H_t at t = 0 or pi, from its parity blocks.

    ``vectors[:, i]`` is the unit right eigenvector for ``lambdas[i]`` and
    ``left_vectors[:, i]`` its adjoint partner (for conj(lambdas[i])), on
    the Fourier window k = -M..M, with their residuals against the
    truncation.  ``block[i]`` is 0 for the even block (the + block at pi)
    and 1 for the odd (-) one; a one-sided truncation is one block.

    Each block is unreduced tridiagonal, so every eigenvalue of a block
    has a one-dimensional eigenspace: a cluster (eigenvalues linked by
    ``_linked`` at ``CLUSTER_RTOL``) is deficient when all its members sit
    in one block.  A Hermitian truncation, the free one included, is
    never deficient.
    """

    t: float
    lambdas: np.ndarray
    block: np.ndarray
    vectors: np.ndarray
    left_vectors: np.ndarray
    residuals: np.ndarray
    left_residuals: np.ndarray
    hermitian: bool

    def nearest(self, lam_ref: complex, block: Optional[int] = None) -> int:
        """The eigenvalue nearest ``lam_ref``, of one block if given."""
        dist = np.abs(self.lambdas - lam_ref)
        if block is not None:
            dist[self.block != block] = np.inf
        return int(np.argmin(dist))

    def cluster(self, i: int) -> np.ndarray:
        """The indices of the eigenvalues linked to eigenvalue i, i too."""
        mag = np.abs(self.lambdas)
        return np.flatnonzero(_linked(self.lambdas, self.lambdas[i], mag,
                                      mag[i], CLUSTER_RTOL))

    def multiplicity(self, i: int) -> int:
        """The geometric multiplicity of eigenvalue i's cluster: one per
        block it meets, or its size for a Hermitian truncation."""
        cl = self.cluster(i)
        return len(cl) if self.hermitian else len(np.unique(self.block[cl]))

    def is_deficient(self, i: int) -> bool:
        """Whether eigenvalue i's cluster is short of eigenvectors."""
        return self.multiplicity(i) < len(self.cluster(i))

    def label(self, n: int, lam_ref: complex) -> Optional[int]:
        """Band n's eigenpair, or None for a deficient cluster.

        The eigenvalue nearest the curve value ``lam_ref``; in a cluster
        that spans both blocks, n >= 0 takes the even (+) block's member
        and n < 0 the odd (-) one's.
        """
        i = self.nearest(lam_ref)
        if self.is_deficient(i):
            return None
        if len(np.unique(self.block[self.cluster(i)])) == 1:
            return i
        return self.nearest(lam_ref, block=0 if n >= 0 else 1)


def endpoint_spectrum(pot: MathieuPotential, t: float,
                      M: int) -> EndpointSpectrum:
    """The eigenpairs of H_t at t = 0 or +-pi (-pi read as pi) on the
    window k = -M..M, from its two parity blocks.

    In the gauge of ``_gauge`` both couplings are g = sqrt(ab), and the
    matrix commutes with the reflection k -> -k (t = 0) or k -> -1-k
    (t = pi).  On the basis (e_k +- e_mirror)/sqrt 2, k >= 0, it splits
    into two tridiagonal blocks with coupling g, each solved once by dense
    QR: at t = 0 the even block also holds e_0, coupled to k = 1 by
    sqrt(2) g; at pi the first diagonal entry gets +-g, and the edge row
    k = M, which has no mirror, is left out.  The two members of a
    two-periodic pair live in opposite blocks and stay perfectly
    conditioned even when their splitting is far below double precision.
    Both blocks are complex symmetric, so ``_ungauge`` reads the right and
    the adjoint vectors off each block vector.  At pi the left-out edge
    row can leave a pair short of the certificate on the M-truncation;
    ``BandSolver.bands`` polishes the simple pairs it labels there.

    A one-sided truncation (ab = 0) is bidiagonal: its eigenvalues are
    the diagonal, one block, with the closed-form pairs of ``_one_sided``
    (zero vectors where that refuses a pair).
    """
    t = abs(float(t))
    if t not in (0.0, math.pi):
        raise ValidationError(f"t={t!r} is not a two-periodic endpoint")
    op = assemble(pot, t, M)
    if pot.ab == 0:
        lam, x, y, res, lres, _ = _one_sided(pot, M, np.array([t]), op.ks)
        return EndpointSpectrum(t, lam[0], np.zeros(op.size, dtype=int),
                                x[0], y[0], res[0], lres[0], op.is_hermitian)
    at_pi = t != 0.0
    s, g = _gauge(op.super, op.sub)
    lams, blocks, vs = [], [], []
    for block, sign in enumerate((1.0, -1.0)):
        ks = np.arange(1 if sign < 0 and not at_pi else 0,
                       M if at_pi else M + 1)
        diag = op.diag[M + ks].astype(complex)
        off = np.full(len(ks) - 1, g)
        if at_pi:
            diag[0] += sign * g
        elif sign > 0:
            off[0] *= math.sqrt(2.0)
        try:
            w, vr = np.linalg.eig(np.diag(diag) + np.diag(off, 1)
                                  + np.diag(off, -1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"parity block did not converge at t={t!r}, M={M}: {exc}"
            ) from exc
        v = np.zeros((op.size, len(w)), dtype=complex)
        v[M + ks] = vr / math.sqrt(2.0)
        v[M + (-1 - ks if at_pi else -ks)] = sign * vr / math.sqrt(2.0)
        if not at_pi and sign > 0:
            v[M] = vr[0]                   # e_0 is its own mirror
        lams.append(w)
        blocks.append(np.full(len(w), block))
        vs.append(v)
    lam, v = np.concatenate(lams), np.hstack(vs)
    x, y = _ungauge(s, op.ks, v)
    with np.errstate(all="ignore"):
        res, lres = _residuals(op.diag[:, None], op.super, op.sub, lam, x, y)
    return EndpointSpectrum(t, lam, np.concatenate(blocks), x, y, res, lres,
                            op.is_hermitian)


# --------------------------------------------------------------------------
# Curve tracking
# --------------------------------------------------------------------------

@dataclass
class BlochCurveSet:
    """Continuously numbered eigenvalue curves sampled on [0, pi].

    lambda_n(-t) = lambda_n(t) extends every curve to (-pi, pi]; accessors
    take any quasimomentum in that interval.  ``pair_labels`` records which
    labels coalesce at the two-periodic endpoints.  ``M`` is the truncation
    every eigenpair is read on; the tracking solved eigenvalues only, on
    the narrower central window k = -window_M..window_M, and ``eigensolves``
    counts the solves it made (see ``track_curves``).  ``residuals``, the
    certificates of the labelled eigenpairs at the samples, come from one
    ``BandSolver.bands`` pass at first read, and are residuals on M: the
    batch iterates on the window, but certifies its zero-padded pairs on
    the M-truncation.
    """

    pot: MathieuPotential
    M: int
    t_samples: np.ndarray
    curves: Dict[int, np.ndarray]
    pair_labels: dict
    window_M: int
    eigensolves: int
    ambiguities: list = field(default_factory=list)

    @property
    def n_values(self) -> List[int]:
        return sorted(self.curves.keys())

    def value(self, n: int, t: float) -> complex:
        """lambda_n(t) by linear interpolation of the samples."""
        tt = abs(float(t))
        arr = self.curves[n]
        re = np.interp(tt, self.t_samples, arr.real)
        im = np.interp(tt, self.t_samples, arr.imag)
        return complex(re, im)

    @cached_property
    def residuals(self) -> Dict[int, np.ndarray]:
        """Each label's residual certificate at the samples."""
        got = BandSolver(self.pot, self).bands(self.t_samples, self.n_values)
        return {n: got.residual[:, r] for r, n in enumerate(self.n_values)}

    def rows(self):
        """(n, t, lambda, residual) over the mirrored grid, for export."""
        for n in self.n_values:
            lam = self.curves[n]
            res = self.residuals[n]
            for j in range(len(self.t_samples) - 1, 0, -1):
                if 0.0 < self.t_samples[j] < math.pi:
                    yield n, -self.t_samples[j], lam[j], res[j]
            for j in range(len(self.t_samples)):
                yield n, self.t_samples[j], lam[j], res[j]


def default_grid(t_points: int = 128) -> np.ndarray:
    """Grid on [0, pi], dyadically refined toward the pairing endpoints."""
    if t_points < 16:
        raise ValidationError("grid needs at least 16 points")
    base = np.linspace(0.0, math.pi, t_points)
    fine = math.pi * 2.0 ** (-np.arange(3, 26, dtype=float))
    grid = np.unique(np.concatenate([base, fine, math.pi - fine]))
    return grid


def _predict(prev: np.ndarray, prev2: Optional[np.ndarray],
             dt_ratio: float) -> np.ndarray:
    if prev2 is None:
        return prev
    return prev + (prev - prev2) * dt_ratio


def _assign(pred: np.ndarray, lams: np.ndarray):
    """Minimal-total-distance assignment of predictions to eigenvalues.

    Returns (indices, margins, seps): per label the assigned eigenvalue
    index, the cost margin to the best alternative, and the distance
    between the two candidates (a tiny margin is only ambiguous when the
    candidates are genuinely far apart).  When every label's nearest
    eigenvalue is a different one, that choice is the optimum; otherwise
    ``_min_cost_assignment`` solves the whole cost matrix, since a label
    that is not in conflict may have to give way.
    """
    if len(lams) < len(pred):
        raise ValidationError(
            f"{len(pred)} labels cannot be matched to {len(lams)} eigenvalues")
    cost = np.abs(pred[:, None] - lams[None, :])
    idx = np.argmin(cost, axis=1)
    if len(set(idx.tolist())) < len(idx):
        idx = _min_cost_assignment(cost)
    r = np.arange(len(pred))
    others = cost.copy()
    others[r, idx] = np.inf
    alt = np.argmin(others, axis=1)
    margins = cost[r, alt] - cost[r, idx]
    # np.hypot rounds as the scalar complex abs does; the vectorized
    # complex abs can differ from both in the last bit
    gap = lams[alt] - lams[idx]
    seps = np.hypot(gap.real, gap.imag)
    return idx, margins, seps


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimal-sum assignment of an n x m cost
    matrix, n <= m.

    The shortest augmenting path method of Jonker & Volgenant (Computing
    38 (1987)) in the rectangular form of Crouse (IEEE Trans. Aerosp.
    Electron. Syst. 52 (2016)): rows join one at a time, each by a
    Dijkstra search over reduced costs that keeps the dual potentials u, v
    feasible.  Columns are scanned from the last, and a tie prefers a free
    column, so ties resolve as in scipy's ``linear_sum_assignment``.
    """
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m)
    col4row = np.full(n, -1)
    row4col = np.full(m, -1)
    path = np.full(m, -1)
    for cur in range(n):
        shortest = np.full(m, np.inf)
        seen_rows = np.zeros(n, dtype=bool)
        seen_cols = np.zeros(m, dtype=bool)
        remaining = np.arange(m - 1, -1, -1)
        size, i, min_val, sink = m, cur, 0.0, -1
        while sink < 0:
            seen_rows[i] = True
            cols = remaining[:size]
            reduced = min_val + cost[i, cols] - u[i] - v[cols]
            closer = reduced < shortest[cols]
            path[cols[closer]] = i
            shortest[cols[closer]] = reduced[closer]
            dist = shortest[cols]
            min_val = dist.min()
            ties = np.flatnonzero(dist == min_val)
            free = ties[row4col[cols[ties]] < 0]
            pick = free[-1] if len(free) else ties[0]
            j = cols[pick]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            size -= 1
            remaining[pick] = remaining[size]
        seen_rows[cur] = False
        u[seen_rows] += min_val - shortest[col4row[seen_rows]]
        u[cur] += min_val
        v[seen_cols] -= min_val - shortest[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _eigenvalues(op: TruncatedOperator) -> np.ndarray:
    """Every eigenvalue of the truncation, without vectors.

    It makes every eigenvalue-only solve: ``stable_m``'s two checks, and
    the tracking on the narrow window ``stable_m`` certifies.  A one-sided
    (bidiagonal) truncation's eigenvalues are its diagonal, which a wider
    window only extends, so it makes no solve.  Every other one solves
    the gauged matrix (``_gauge``), which depends on ab alone: by LAPACK's
    dense symmetric solver when g = sqrt(ab) is real (every ab > 0), by
    its dense QR otherwise.  The symmetric solve computes vectors and
    drops them: with vectors the low bands agree with 40-digit references
    to about 3e-16 relative, without them (``eigvalsh``) to about 1e-11.
    """
    if op.super == 0 or op.sub == 0:
        return op.diag.astype(complex)
    g = _gauge(op.super, op.sub)[1]
    off = np.full(op.size - 1, g.real if g.imag == 0 else g)
    sym = np.diag(op.diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        if np.isrealobj(sym):
            return np.linalg.eigh(sym)[0].astype(complex)
        return np.linalg.eigvals(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge at t={op.t!r}, M={op.M}: {exc}"
        ) from exc


#: Labels beyond the largest |n| that the tracking window starts with.
WINDOW_MARGIN = 10


def stable_m(pot: MathieuPotential, n_max: int,
             M: Optional[int] = None) -> Tuple[int, int, int]:
    """(M, K, solves): the truncation, the tracking's window K <= M and the
    window check's eigensolves, from one pass of two checks at STABLE_T.

    Unless M is given, it starts at ``default_m(n_max)`` and doubles, up
    to M_CAP, until the eigenvalues in |lambda| <= (2 pi n_max)^2 move by
    less than STABLE_RTOL*(1+|lambda|) from M to M + 10.  K starts at
    min(M, n_max + WINDOW_MARGIN) and doubles, up to M, until every
    K-window eigenvalue in |lambda| <= (2 pi (n_max + 1))^2 lies within
    10 eps scale(M) of one of the M-truncation, whose solve the first
    check shares (``solves`` counts it only when M is given).  A one-sided
    potential, whose eigenvalues are the diagonal, needs no solve.  Raises
    ValidationError for a given M < n_max + 1, TrackingAmbiguityError
    when M does not stabilize below M_CAP.
    """
    check_m = M is None
    if check_m:
        M = default_m(n_max)
    elif M < n_max + 1:
        raise ValidationError(
            f"truncation M={M} cannot hold the labels |n| <= {n_max}: "
            f"M must be >= {n_max + 1}")
    # a checked M starts at default_m > n_max + 10: doubling it keeps K
    K = min(M, n_max + WINDOW_MARGIN)
    if pot.a == 0 or pot.b == 0:
        return M, K, 0

    def spectrum(m: int) -> np.ndarray:
        return _eigenvalues(assemble(pot, STABLE_T, m))

    full = None
    while check_m:
        full, wider = spectrum(M), spectrum(M + 10)
        w = full[np.abs(full) <= (TWO_PI * n_max) ** 2 + 1.0]
        drift = np.min(np.abs(w[:, None] - wider[None, :]), axis=1)
        if np.all(drift <= STABLE_RTOL * (1.0 + np.abs(w))):
            break
        if M >= M_CAP:
            raise TrackingAmbiguityError(
                f"truncation did not stabilize below M={M_CAP}")
        M *= 2
    solves = 0
    tol = 10.0 * np.finfo(float).eps * float(_scale(pot, STABLE_T, M))
    while K < M:
        if full is None:
            full = spectrum(M)
            solves += 1
        w = spectrum(K)
        solves += 1
        w = w[np.abs(w) <= (TWO_PI * (n_max + 1)) ** 2]
        if np.all(np.min(np.abs(w[:, None] - full[None, :]), axis=1) <= tol):
            break
        K = min(2 * K, M)
    return M, K, solves


def track_curves(pot: MathieuPotential, t_grid: Optional[np.ndarray] = None,
                 n_range=None, M: Optional[int] = None) -> BlochCurveSet:
    """Track continuously numbered eigenvalue curves over [0, pi].

    Labels are anchored at t = pi/2 by nearest-unperturbed matching
    (lambda_n ~ (2 pi n + pi/2)^2) and continued stepwise by minimal-sum
    assignment with linear extrapolation.  The grid refines itself where a
    matching is ambiguous (margin below 1e-12 of the scale of the
    M-truncation), up to ``REFINE_CAP`` rounds; leftover ambiguities are
    reported on the result rather than raised.

    M (``stable_m``'s unless given) and the central window k = -K..K come
    from one ``stable_m`` call; only eigenvalues are solved, and only on
    the window (K = min(M, n_max + 10) unless the check widens it); the
    margin, and every eigenpair read later, stay on M.  ``eigensolves`` on
    the result counts one solve per grid point, refinements included, plus
    the window check's (with a given M, its solve on M too); a one-sided
    potential makes none.  Raises ValidationError when M < n_max + 1.
    """
    if n_range is None:
        n_range = range(-3, 4)
    labels = sorted(int(n) for n in n_range)
    n_max = max(abs(n) for n in labels)
    M, K, solves = stable_m(pot, n_max, M)
    one_sided = pot.a == 0 or pot.b == 0
    if t_grid is None:
        t_grid = default_grid()
    t_grid = np.unique(np.asarray(t_grid, dtype=float))
    if t_grid[0] < 0 or t_grid[-1] > math.pi + PI_SLACK:
        raise ValidationError("tracking grid must lie in [0, pi]")

    cache: Dict[float, Tuple[np.ndarray, float]] = {}

    def solve(t: float) -> Tuple[np.ndarray, float]:
        """(eigenvalues on the window, scale of the M-truncation) at t."""
        if t not in cache:
            cache[t] = (_eigenvalues(assemble(pot, t, K)),
                        float(_scale(pot, t, M)))
        return cache[t]

    ambiguities: list = []
    grid = t_grid

    for _round in range(REFINE_CAP + 1):
        grid = t_grid
        anchor_j = int(np.argmin(np.abs(grid - math.pi / 2)))
        anchor_lams, _ = solve(grid[anchor_j])
        refs = np.array([free_lambda(n, grid[anchor_j]) for n in labels],
                        dtype=complex)
        idx, _, _ = _assign(refs, anchor_lams)
        assigned = {grid[anchor_j]: idx}

        new_points: List[float] = []

        def march(js):
            prev_idx = idx
            prev_t = grid[anchor_j]
            prev2_vals = None
            prev_vals = anchor_lams[prev_idx]
            for j in js:
                t = grid[j]
                lams, scale = solve(t)
                dt_prev = abs(t - prev_t)
                ratio = 1.0 if prev2_vals is None else dt_prev / max(
                    abs(prev_t - prev2_t), 1e-300)
                pred = _predict(prev_vals, prev2_vals, ratio)
                aidx, margins, seps = _assign(pred, lams)
                tol = 1e-12 * scale
                bad = (margins < tol) & (seps > 10.0 * tol)
                if np.any(bad) and dt_prev > 1e-9:
                    new_points.append(0.5 * (t + prev_t))
                assigned[t] = aidx
                prev2_t, prev2_vals = prev_t, prev_vals
                prev_t, prev_vals, prev_idx = t, lams[aidx], aidx

        march(range(anchor_j + 1, len(grid)))
        march(range(anchor_j - 1, -1, -1))

        if not new_points:
            break
        t_grid = np.unique(np.concatenate([grid, new_points]))

    if new_points:
        # refinement budget exhausted: report the ambiguous spots; the
        # last fully processed grid is what gets emitted
        for tmid in new_points:
            ambiguities.append({"t": float(tmid),
                                "note": "matching margin below residual"})

    curves = {n: np.empty(len(grid), dtype=complex) for n in labels}
    for j, t in enumerate(grid):
        lams = cache[t][0][assigned[t]]
        for r, n in enumerate(labels):
            curves[n][j] = lams[r]

    pair_labels = {"zero": [], "pi": []}
    for n in labels:
        if n >= 1 and -n in curves:
            gap = abs(curves[n][0] - curves[-n][0])
            pair_labels["zero"].append(
                {"pair": [n, -n], "lambda": _c2l(curves[n][0]), "gap": float(gap)})
        if n >= 0 and (-n - 1) in curves:
            gap = abs(curves[n][-1] - curves[-n - 1][-1])
            pair_labels["pi"].append(
                {"pair": [n, -n - 1], "lambda": _c2l(curves[n][-1]),
                 "gap": float(gap)})
    pair_labels["rho"] = RHO_PAIRING

    if not one_sided:
        solves += len(cache)
    return BlochCurveSet(pot=pot, M=M, t_samples=grid, curves=curves,
                         pair_labels=pair_labels, window_M=K,
                         eigensolves=solves, ambiguities=ambiguities)


def _c2l(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


# --------------------------------------------------------------------------
# Labeled access used by the profile and expansion machinery
# --------------------------------------------------------------------------

def _tridiagonal_solve(diag: np.ndarray, g: complex,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve many tridiagonal systems by Gaussian elimination with pivoting.

    Column p of ``diag`` and ``rhs`` (shape (N, P)) is one system, with the
    constant coupling ``g`` above and below the diagonal.  Rows are
    interchanged as LAPACK's ``gttrf`` does (the larger of the pivot and
    the entry below it leads), which fills in a second superdiagonal;
    elimination and back substitution run over the rows, each step
    vectorized over the systems.  ``diag`` is overwritten with the pivots
    and ``rhs`` with the solution, which is returned.
    """
    n = diag.shape[0]
    p1 = np.empty_like(diag)        # U's first superdiagonal
    p2 = np.empty_like(diag)        # and the fill-in beyond it
    a0, a1, ar = diag[0].copy(), g, rhs[0].copy()       # the active row
    for i in range(n - 1):
        d1, b1 = diag[i + 1], rhs[i + 1]
        swap = np.abs(a0) < abs(g)
        diag[i] = np.where(swap, g, a0)
        f = np.where(swap, a0, g) / diag[i]
        p1[i] = np.where(swap, d1, a1)
        p2[i] = np.where(swap, g, 0.0)
        rhs[i] = np.where(swap, b1, ar)
        a0 = np.where(swap, a1, d1) - f * p1[i]
        a1 = np.where(swap, -f * g, g)
        ar = np.where(swap, ar, b1) - f * rhs[i]
    rhs[n - 1] = ar / a0
    rhs[n - 2] = (rhs[n - 2] - p1[n - 2] * rhs[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        rhs[i] = (rhs[i] - p1[i] * rhs[i + 1] - p2[i] * rhs[i + 2]) / diag[i]
    return rhs


#: Inverse-iteration sweeps per batch; the shift moves to the two-sided
#: Rayleigh quotient after every sweep but the last.
SWEEPS = 3

#: Further sweeps, at most, of a pair whose residual is still above
#: ``ROUNDING`` after ``SWEEPS``: on the benchmark's jobs one brings every
#: pair that is accepted to rounding level.
EXTRA_SWEEPS = 1

#: A pair whose residual on the M-truncation is at most this fraction of
#: the truncation's scale is converged: a hundred times what a converged
#: batch pair shows (about 1e-16 of the scale).
ROUNDING = 1e-14

#: Largest number of (node, label) pairs iterated at once.
BATCH_PAIRS = 512

#: Largest number of (node, label) pairs resolved at once in closed form:
#: its recurrences cost next to nothing, so a small chunk keeps their
#: temporaries below the vectors they fill.
CLOSED_FORM_PAIRS = 128


def _inverse_iteration(pot: MathieuPotential, M: int, ts: np.ndarray,
                       shifts: np.ndarray, labels: np.ndarray,
                       K: Optional[int] = None):
    """Eigenpairs near ``shifts`` of H_t at ``ts``, one pair each, on the
    M-truncation.

    Any t will do: nothing below assumes a sign.  Each pair solves
    (G_t - sigma) v = v_prev once per sweep on the window k = -K..K (all
    of M by default), G_t the gauged matrix (``_gauge``), and takes the
    bilinear Rayleigh quotient v^T G_t v / v^T v as the next shift (Ipsen,
    SIAM Review 39 (1997); Arbenz & Hochstenbach, SIAM J. Sci. Comput. 25
    (2004)): the two-sided quotient <y, H x>/<y, x> of the vectors x, y
    that ``_ungauge`` reads off v.  It starts from e_k alone, k the pair's
    entry of ``labels`` (band n's free vector leads at k = n for t >= 0
    and at -n for t < 0), so that its solves decay away from k as the
    eigenvector does: the gauge factors s^-+k would blow up any residue.

    The residuals are those of x and y, zero-padded to M, on H_t's
    M-truncation (``_residuals``).  After ``SWEEPS``, a pair whose residual
    is above ``ROUNDING`` of the scale sweeps again, at most
    ``EXTRA_SWEEPS`` times; one still above it starts over on the window
    2K, and so on up to M.  Returns (lam, x, y, residual, left residual)
    with the unit vectors as columns; a broken-down pair is non-finite.
    """
    npairs, size = len(ts), 2 * M + 1
    lam = np.empty(npairs, dtype=complex)
    x = np.zeros((size, npairs), dtype=complex)
    y = np.zeros_like(x)
    res, lres = np.empty(npairs), np.empty(npairs)
    rounding = ROUNDING * _scale(pot, ts, M)
    todo = np.arange(npairs)
    K = M if K is None else min(K, M)
    while todo.size:
        got = _sweeps(pot, K, M, ts[todo], shifts[todo], labels[todo],
                      rounding[todo])
        rows = slice(M - K, M + K + 1)
        lam[todo], x[rows, todo], y[rows, todo] = got[:3]
        res[todo], lres[todo] = got[3:]
        if K == M:
            break
        todo = todo[~(np.maximum(res[todo], lres[todo]) <= rounding[todo])]
        K = min(2 * K, M)
    return lam, x, y, res, lres


def _sweeps(pot: MathieuPotential, K: int, M: int, ts: np.ndarray,
            shifts: np.ndarray, labels: np.ndarray, rounding: np.ndarray):
    """``_inverse_iteration`` on the window k = -K..K alone: (lam, x, y,
    residual, left residual) with the vectors on the window and the
    residuals of the zero-padded vectors on the M-truncation."""
    a, b = complex(pot.a), complex(pot.b)
    s, g = _gauge(a, b)
    ks = np.arange(-K, K + 1)
    diag = (TWO_PI * ks[:, None] + ts[None, :]) ** 2
    npairs = len(ts)
    v = np.eye(len(ks), dtype=complex)[:, np.clip(labels, -K, K) + K]
    sigma = shifts.astype(complex)
    res, lres = np.full(npairs, np.inf), np.full(npairs, np.inf)
    live = np.arange(npairs)
    with np.errstate(all="ignore"):
        for sweep in range(SWEEPS + EXTRA_SWEEPS):
            if sweep >= SWEEPS:
                live = live[~(np.maximum(res[live], lres[live])
                              <= rounding[live])]
                if not live.size:
                    break
            w = _tridiagonal_solve(diag[:, live] - sigma[live], g,
                                   v[:, live])
            w /= np.linalg.norm(w, axis=0)
            v[:, live] = w
            sigma[live] = (np.sum(w * _product(diag[:, live], g, g, w), axis=0)
                           / np.sum(w * w, axis=0))
            if sweep < SWEEPS - 1:
                continue
            res[live], lres[live] = _residuals(
                diag[:, live], a, b, sigma[live], *_ungauge(s, ks, w), K < M)
    return (sigma, *_ungauge(s, ks, v), res, lres)


#: pi - math.pi, the part of pi that a double drops.
_PI_LO = 1.2246467991473532e-16


def _chain(gap: np.ndarray, coupling: complex) -> np.ndarray:
    """Unit eigenvector columns of a lower-bidiagonal truncation.

    Column p belongs to the diagonal entry whose gaps d_n - d_k are
    ``gap[:, p]``; it is c_k = coupling c_{k-1} / gap_k, started at 1 on
    the last row whose gap is exactly zero (k = n, or the upper member of
    the exact double d_n = d_-n at t = 0) and zero above that row.
    """
    rows = np.arange(gap.shape[0])[:, None]
    start = gap.shape[0] - 1 - np.argmax(gap[::-1] == 0, axis=0)
    v = np.divide(coupling, gap, out=np.ones(gap.shape, dtype=complex),
                  where=rows > start)
    np.cumprod(v, axis=0, out=v)
    v *= rows >= start
    v /= np.linalg.norm(v, axis=0)
    return v


def _one_sided(pot: MathieuPotential, M: int, ts: np.ndarray, labels):
    """Closed-form eigenpairs of ``labels`` at each t of ``ts`` (ab = 0).

    The truncation is bidiagonal, so label n's eigenvalue is its diagonal
    entry d_n = (2 pi n + t)^2 and its vectors follow from two-term
    recurrences (Gasymov, Funct. Anal. Appl. 14 (1980)): for a = 0 the
    right vector runs up from k = n with b and the left one down with
    conj(b); for b = 0 the right one runs down with a and the left one up
    with conj(a).  The gaps are d_n - d_k = 2 pi (n - k)(2 pi (n + k) + 2t),
    free of the cancellation of a difference of squares, with pi carried
    to twice double precision so that they hold near t = pi as well.

    A pair is accepted when it is finite and certified on both sides
    (``_certificate``) and no other diagonal entry is linked to d_n
    (``_linked`` at ``CLUSTER_RTOL``): such a cluster within the one
    bidiagonal block is deficient (see ``EndpointSpectrum``).  Returns (lam, right, left, res, lres, ok) indexed [node,
    label] (vectors [node, :, label]); a refused pair keeps d_n, the
    residuals of its recurrence and zero vectors.
    """
    a, b = complex(pot.a), complex(pot.b)
    ks = np.arange(-M, M + 1)[:, None]
    nn, nl = len(ts), len(labels)
    t = np.repeat(ts, nl)               # the pairs as columns, node-major
    n = np.tile(np.asarray(labels, dtype=int), nn)
    diag = (TWO_PI * ks + t) ** 2
    lam = diag[n + M, np.arange(len(n))]
    # t + pi m with pi split in two doubles: near t = pi the partner's
    # t - pi is then exact to rounding, not off by the rounding of pi
    gap = 2.0 * TWO_PI * (n - ks) * ((t + math.pi * (n + ks))
                                     + _PI_LO * (n + ks))
    # a refused pair's recurrence may overflow (a gap near 1e-300); its
    # residuals then read inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        # a = 0: right up with b, left down with conj(b); b = 0 the mirror
        x = _chain(gap, b) if a == 0 else _chain(gap[::-1], a)[::-1]
        y = (_chain(gap[::-1], np.conj(b))[::-1] if a == 0
             else _chain(gap, np.conj(a)))
        cert = _certificate(diag.max(axis=0) + abs(a) + abs(b))
        links = _linked(lam, diag, lam, diag, CLUSTER_RTOL) & (ks != n)
        diag -= lam         # the shifted matrix gives both residuals
        res = np.linalg.norm(_product(diag, a, b, x), axis=0)
        lres = np.linalg.norm(_product(diag, np.conj(b), np.conj(a), y),
                              axis=0)
        ok = ((res <= cert) & (lres <= cert) & ~links.any(axis=0))
    x[:, ~ok] = y[:, ~ok] = 0.0
    size = 2 * M + 1
    return (lam.reshape(nn, nl),
            x.reshape(size, nn, nl).transpose(1, 0, 2),
            y.reshape(size, nn, nl).transpose(1, 0, 2),
            res.reshape(nn, nl), lres.reshape(nn, nl), ok.reshape(nn, nl))


def direct_pair(pot: MathieuPotential, M: int, t: float, k: int,
                shift: complex):
    """The eigenpair of H_t near ``shift`` whose free vector leads at
    Fourier index k, solved at t itself: the closed form of the diagonal
    entry k for ab = 0 (``_one_sided``; its exact eigenvalue is a zero
    pivot for inverse iteration), one ``_inverse_iteration`` otherwise.
    Returns (lam, right, left, res, lres, certified), certified when the
    pair is finite and both residuals meet ``_certificate``.
    """
    ts, lead = np.array([float(t)]), np.array([k])
    if pot.ab == 0:
        lam, x, y, res, lres, _ = _one_sided(pot, M, ts, lead)
        x, y = x[0], y[0]
    else:
        lam, x, y, res, lres = _inverse_iteration(pot, M, ts,
                                                  np.array([shift]), lead)
    lam = complex(np.ravel(lam)[0])
    res, lres = (float(np.ravel(g)[0]) for g in (res, lres))
    cert = _certificate(_scale(pot, t, M))
    certified = bool(np.isfinite(lam) and res <= cert and lres <= cert)
    return lam, x[:, 0], y[:, 0], res, lres, certified


@dataclass
class BandBatch:
    """Labelled Bloch pairs at a list of nodes, from ``BandSolver.bands``.

    Arrays are indexed [node, label] (vectors [node, :, label], on the
    solver's Fourier window): ``lam``; the unit right eigenvector ``right``
    and its adjoint partner ``left`` (for conj(lam)); their residual
    certificates.  ``ok`` is False where the pair was refused, by the route
    that resolved it; a refused pair keeps that route's eigenvalue and
    residuals, and zero vectors.  ``endpoint`` marks the pairs resolved on
    the parity blocks (t = 0 or +-pi, ab != 0), and ``endpoint_solves``
    counts the endpoint solves that took, one per node.
    """

    t: np.ndarray
    lam: np.ndarray
    right: np.ndarray
    left: np.ndarray
    residual: np.ndarray
    left_residual: np.ndarray
    ok: np.ndarray
    endpoint: np.ndarray
    endpoint_solves: int


class BandSolver:
    """Labelled Bloch pairs along a set of tracked curves: ``bands`` is the
    one entry, and it sends each pair down one route chosen from the
    input.  It takes any t in (-pi, pi] and keeps nothing once it returns.
    """

    def __init__(self, pot: MathieuPotential, curves: BlochCurveSet):
        self.pot = pot
        self.curves = curves
        self.M = curves.M

    def solution(self, t: float) -> EndpointSpectrum:
        """The endpoint solve at t = 0 or +-pi, not kept."""
        return endpoint_spectrum(self.pot, t, self.M)

    def bands(self, ts, labels) -> BandBatch:
        """Every (t, n) pair of ``ts`` x ``labels``.

        Each distinct |t| is resolved once; -pi, and a |t| past pi within
        PI_SLACK, is read as pi, and a |t| beyond raises ValidationError.
        A negative t is reflected from -t: with P the reversal k -> -k,
        H_{-t} = P H_t^T P entry for entry, truncation included, so if
        A v = lam v and A^H w = conj(lam) w at t, then P conj(w) is a right
        and P conj(v) a left eigenvector of H_{-t} for the same lam, and
        the two residuals trade places.

        A potential with ab = 0, whose bidiagonal eigenvalues sit on exact
        zero pivots, has every pair from the closed form of ``_one_sided``,
        in chunks of ``CLOSED_FORM_PAIRS``; it refuses a label whose
        diagonal entry is linked to another.

        Otherwise a node at t = 0 or pi is solved once on its parity
        blocks (``solution``), and band n takes ``EndpointSpectrum.label``
        with the curve value as reference, which refuses a deficient
        cluster; a simple pair its block vectors leave short of the
        certificate takes one ``direct_pair`` on the M-truncation from its
        block eigenvalue, kept when it stays nearest that eigenvalue.  Every
        other node goes to ``_batch``, in chunks of at most about
        ``BATCH_PAIRS`` pairs.  Either way a pair must also be finite and
        certified on both sides (``_certificate``); no route falls back on
        another.
        """
        ts = np.asarray(ts, dtype=float)
        far = np.abs(ts) > math.pi + PI_SLACK
        if np.any(far):
            raise ValidationError(f"quasimomentum t={float(ts[far][0])!r} "
                                  "lies outside [-pi, pi]")
        ts = np.where(np.abs(ts) >= math.pi, math.pi, ts)
        labels = [int(n) for n in labels]
        nodes, back = np.unique(np.abs(ts), return_inverse=True)
        size, nl = 2 * self.M + 1, len(labels)
        lam = np.zeros((len(nodes), nl), dtype=complex)
        right = np.zeros((len(nodes), size, nl), dtype=complex)
        left = np.zeros_like(right)
        res = np.zeros((len(nodes), nl))
        lres = np.zeros_like(res)
        ok = np.ones((len(nodes), nl), dtype=bool)
        one_sided = self.pot.ab == 0
        ends = (((nodes == 0.0) | (nodes == math.pi))
                & (nl > 0 and not one_sided))
        if nl:
            every = labels if one_sided else sorted(
                set(labels) | {-n for n in labels} | {-n - 1 for n in labels})
            cols = [every.index(n) for n in labels]
            chunk = CLOSED_FORM_PAIRS if one_sided else BATCH_PAIRS
            step = max(1, chunk // len(every))
            inner = np.flatnonzero(~ends)
            for lo in range(0, len(inner), step):
                part = inner[lo:lo + step]
                got = (_one_sided(self.pot, self.M, nodes[part], every)
                       if one_sided else self._batch(nodes[part], every))
                got = [g[..., cols] for g in got]
                lam[part], right[part], left[part] = got[:3]
                res[part], lres[part], ok[part] = got[3:]
        for j in np.flatnonzero(ends):
            t = float(nodes[j])
            sol = self.solution(t)
            cert = _certificate(_scale(self.pot, t, self.M))
            for r, n in enumerate(labels):
                ref = self.curves.value(n, t)
                i = sol.label(n, ref)
                if i is None:
                    i, ok[j, r] = sol.nearest(ref), False
                got = (sol.lambdas[i], sol.vectors[:, i],
                       sol.left_vectors[:, i], sol.residuals[i],
                       sol.left_residuals[i])
                if (ok[j, r] and len(sol.cluster(i)) == 1
                        and not (got[3] <= cert and got[4] <= cert)):
                    # at pi the blocks leave out the edge row k = M: polish
                    # a simple pair on the M-truncation from its block
                    # eigenvalue (one iteration cannot keep a cluster's
                    # members apart)
                    peak = np.argmax(np.nan_to_num(np.abs(got[1]))) - self.M
                    new = direct_pair(self.pot, self.M, t, peak, got[0])
                    if new[5] and sol.nearest(new[0]) == i:
                        got = new[:5]
                lam[j, r], res[j, r], lres[j, r] = got[0], got[3], got[4]
                ok[j, r] &= bool(res[j, r] <= cert and lres[j, r] <= cert)
                if ok[j, r]:
                    right[j, :, r], left[j, :, r] = got[1], got[2]
        endpoint = np.repeat(ends[:, None], nl, axis=1)
        if not np.array_equal(nodes, ts):
            # back to the requested nodes, reflecting t < 0
            neg = ts < 0
            lam, ok, endpoint = lam[back], ok[back], endpoint[back]
            right, left = right[back], left[back]
            right[neg], left[neg] = (np.conj(left[neg, ::-1]),
                                     np.conj(right[neg, ::-1]))
            res, lres = res[back], lres[back]
            res[neg], lres[neg] = lres[neg], res[neg]
        return BandBatch(t=ts, lam=lam, right=right, left=left,
                         residual=res, left_residual=lres, ok=ok,
                         endpoint=endpoint,
                         endpoint_solves=int(np.sum(ends)))

    def _batch(self, nodes: np.ndarray, every: List[int]):
        """(lam, right, left, res, lres, accepted) of ``every`` label at
        each node 0 < t < pi from one ``_inverse_iteration`` on the
        tracking's window (widened for a pair that outgrows it), with the
        curve values as shifts (the free values for an endpoint partner the
        curves do not track).  A pair is accepted when it is certified, its
        eigenvalue is nearer its own shift than any other label's and the
        nearest of the batch to its shift, and no other label's eigenvalue
        is linked to it (``_linked`` at ``CLUSTER_RTOL``); a refused pair's
        vectors are zero."""
        tracked = self.curves.curves
        grid = self.curves.t_samples
        shifts = np.stack([
            np.interp(nodes, grid, tracked[n].real)
            + 1j * np.interp(nodes, grid, tracked[n].imag) if n in tracked
            else (TWO_PI * n + nodes) ** 2 for n in every], axis=1)
        nn, nl = shifts.shape
        lam, x, y, res, lres = _inverse_iteration(
            self.pot, self.M, np.repeat(nodes, nl), shifts.ravel(),
            np.tile(every, nn), self.curves.window_M)
        lam, res, lres = (g.reshape(nn, nl) for g in (lam, res, lres))
        cert = _certificate(_scale(self.pot, nodes, self.M))[:, None]
        off = ~np.eye(nl, dtype=bool)
        with np.errstate(invalid="ignore"):
            # dist[j, r, q] = |lam_r - shift_q| at node j
            dist = np.abs(lam[:, :, None] - shifts[:, None, :])
            own = np.diagonal(dist, axis1=1, axis2=2)
            mag = np.abs(lam)
            links = _linked(lam[:, :, None], lam[:, None, :],
                            mag[:, :, None], mag[:, None, :], CLUSTER_RTOL)
            accepted = ((res <= cert) & (lres <= cert)
                        & np.isfinite(lam)
                        & (own < np.where(off, dist, np.inf).min(axis=2))
                        & (own < np.where(off, dist.transpose(0, 2, 1),
                                          np.inf).min(axis=2))
                        & ~np.any(links & off, axis=2))
        x[:, ~accepted.ravel()] = y[:, ~accepted.ravel()] = 0.0
        right = x.T.reshape(nn, nl, -1).transpose(0, 2, 1)
        left = y.T.reshape(nn, nl, -1).transpose(0, 2, 1)
        return lam, right, left, res, lres, accepted

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)
