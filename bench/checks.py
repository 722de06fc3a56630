"""Checks of each job's artifacts against computations made apart from the
program: the form rule from (a, b) alone, the Hill operator's tridiagonal
Fourier matrix built here with numpy, and the closed forms of one-sided
potentials (F(lambda) = 2 cos sqrt(lambda), lambda_n(t) = (2 pi n + t)^2).

Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List

import numpy as np

from workloads import COUPLING_SIMPLE_BOUND, Job

TWO_PI = 2.0 * math.pi

#: Half-bandwidth of the check matrix: (2 pi M)^2 is far above every
#: eigenvalue that the workloads ask for, so truncation does not show.
CHECK_M = 24

#: Residual tolerance of each expansion form (the acceptance criteria).
FORM_TOL = {"Gasymov": 5e-2, "Elegant": 1e-2, "AsymptoticallyElegant": 1e-2}

#: Relative distance from a reported critical value to the two nearest
#: eigenvalues of the check matrix at the reported t*.  Critical values are
#: double eigenvalues, which the check matrix only resolves to about the
#: square root of its rounding error.
CRITICAL_RTOL = 1e-6
#: Same for sampled eigenvalue-curve rows (simple eigenvalues).
CURVE_RTOL = 1e-8
#: Relative residual ||A c - lam c|| / (||A|| ||c||) of eigenfunction files.
EIGVEC_RTOL = 1e-10
#: Every CURVE_STRIDE-th row of curves.csv is checked against the matrix.
CURVE_STRIDE = 61

#: The problem of a self-adjoint classify job whose only fault is the known
#: one: ``detect_singularities`` lists interior singularities (and no ESS).
SPURIOUS = "self-adjoint potential reports spurious interior singularities"


def hill_matrix(a: complex, b: complex, t: complex, M: int = CHECK_M):
    """H_t on Fourier indices -M..M: diagonal (2 pi k + t)^2, a couples
    c_{k+1} into row k and b couples c_{k-1}."""
    ks = np.arange(-M, M + 1)
    m = np.diag((TWO_PI * ks + t) ** 2).astype(complex)
    m += np.diag(np.full(2 * M, a, dtype=complex), 1)
    m += np.diag(np.full(2 * M, b, dtype=complex), -1)
    return m


def expected_form(a: complex, b: complex) -> str:
    ab = a * b
    if ab == 0:
        return "Gasymov"
    return "Elegant" if abs(ab) < COUPLING_SIMPLE_BOUND \
        else "AsymptoticallyElegant"


def _in_window(lam: float, window) -> bool:
    return window[0] <= lam <= window[1]


def _squares_in(window) -> List[float]:
    """(k pi)^2, k >= 1, inside the window."""
    k_hi = int(math.sqrt(max(window[1], 0.0)) / math.pi) + 1
    return [(k * math.pi) ** 2 for k in range(1, k_hi + 1)
            if _in_window((k * math.pi) ** 2, window)]


def _check_critical_points(job: Job, points, what: str) -> List[str]:
    """Each lambda* is a double eigenvalue of the check matrix at t*.

    Any lambda on a band is an eigenvalue at its own t = acos(F/2); only at
    a critical point (F' = 0) does a second eigenvalue meet it.  A point
    moved by d along the band leaves the second one 2|d| away.
    """
    problems = []
    for p in points:
        lam = complex(p["lambda_re"], p["lambda_im"])
        t = complex(p["t_re"], p["t_im"])
        if not _in_window(lam.real, job.window):
            problems.append(f"{what} {lam} outside window {job.window}")
        ev = np.linalg.eigvals(hill_matrix(job.a, job.b, t))
        dist = float(np.sort(np.abs(ev - lam))[1])
        if dist > CRITICAL_RTOL * (1.0 + abs(lam)):
            problems.append(f"{what} {lam} at t*={t} is {dist:.3e} from the "
                            "second-nearest eigenvalue: not a double one")
    return problems


def _check_one_sided_set(job: Job, points, what: str) -> List[str]:
    """The reported set equals {(k pi)^2} inside the window."""
    got = sorted((complex(p["lambda_re"], p["lambda_im"]) for p in points),
                 key=lambda z: (z.real, z.imag))
    want = _squares_in(job.window)
    if len(got) != len(want) or any(
            abs(g - w) > CRITICAL_RTOL * (1.0 + w) for g, w in zip(got, want)):
        return [f"one-sided {what} {got} != "
                f"(k pi)^2 in window {want}"]
    return []


def check_expand(job: Job, out: Path) -> List[str]:
    d = json.loads((out / "expansion.json").read_text(encoding="utf-8"))
    want = expected_form(job.a, job.b)
    problems = []
    if d["form"] != want:
        problems.append(f"form {d['form']} != {want}")
    tol = FORM_TOL[want]
    res = d["max_residual"]
    if not (math.isfinite(res) and res <= tol):
        problems.append(f"max_residual {res:.3e} > {tol:.0e} ({want})")
    return problems


def check_singularities(job: Job, out: Path) -> List[str]:
    d = json.loads((out / "critical_points.json").read_text(encoding="utf-8"))
    points = d["critical_points"]
    problems = _check_critical_points(job, points, "critical point")
    if job.a * job.b == 0:
        problems += _check_one_sided_set(job, points, "critical points")
    elif len(points) != len(_squares_in(job.window)):
        # F' has one root near each (k pi)^2, and the window holds one
        problems.append(f"{len(points)} critical points in a window holding "
                        f"{len(_squares_in(job.window))} (k pi)^2")
    return problems


def check_classify(job: Job, out: Path) -> List[str]:
    d = json.loads((out / "classification.json").read_text(encoding="utf-8"))
    problems = []
    want = expected_form(job.a, job.b)
    if d["expansion_form"] != want:
        problems.append(f"expansion_form {d['expansion_form']} != {want}")
    moduli_differ = not math.isclose(abs(job.a), abs(job.b), rel_tol=1e-9)
    if (moduli_differ or job.a * job.b == 0) and \
            d["asymptotically_spectral"] != "fails":
        problems.append("asymptotically_spectral is "
                        f"{d['asymptotically_spectral']}, not fails")
    sing, ess = d["singularities"], d["ess"]
    if job.b == job.a.conjugate():
        if ess or any(p["family"] != "interior" for p in sing):
            problems.append(f"self-adjoint potential reports {len(sing)} "
                            f"singularities and {len(ess)} ESS")
        elif sing:
            problems.append(SPURIOUS)
        return problems
    problems += _check_critical_points(job, sing, "singularity")
    if job.a * job.b == 0:
        problems += _check_one_sided_set(job, ess, "ESS")
    return problems


def _read_csv(path: Path) -> List[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_spectrum(job: Job, out: Path) -> List[str]:
    problems = []
    rows = _read_csv(out / "curves.csv")
    lam = np.array([complex(float(r["re_lambda"]), float(r["im_lambda"]))
                    for r in rows])
    ns = np.array([int(r["n"]) for r in rows])
    ts = np.array([float(r["t"]) for r in rows])
    scale = 1.0 + np.abs(lam)
    if set(ns) != set(range(-job.n_max, job.n_max + 1)):
        problems.append(f"bands {sorted(set(ns))} != |n| <= {job.n_max}")
    if job.b == job.a.conjugate():
        worst = float(np.max(np.abs(lam.imag) / scale))
        if worst > CURVE_RTOL:
            problems.append(f"self-adjoint curve |Im lambda| reaches "
                            f"{worst:.3e} relative")
    if job.a * job.b == 0:
        free = (TWO_PI * ns + np.abs(ts)) ** 2
        worst = float(np.max(np.abs(lam - free) / scale))
        if worst > CURVE_RTOL:
            problems.append(f"one-sided curve is {worst:.3e} (relative) off "
                            "(2 pi n + |t|)^2")
    for i in range(0, len(rows), CURVE_STRIDE):
        ev = np.linalg.eigvals(hill_matrix(job.a, job.b, ts[i]))
        dist = float(np.min(np.abs(ev - lam[i])))
        if dist > CURVE_RTOL * scale[i]:
            problems.append(f"curves.csv row {i}: n={ns[i]} t={ts[i]!r} "
                            f"lambda={lam[i]} is {dist:.3e} from the nearest "
                            "eigenvalue")
    for n in range(-job.n_max, job.n_max + 1):
        problems += _check_eigenfunction(job, out, n, ts, ns, lam)
    return problems


def _check_eigenfunction(job: Job, out: Path, n: int, ts, ns, lam) -> List[str]:
    """The file's coefficients c at t = pi/2 satisfy A c = lam c, with lam
    the Rayleigh quotient, and lam is band n's curve value there."""
    rows = _read_csv(out / f"eigenfunction_n{n}.csv")
    c = np.array([complex(float(r["re_c"]), float(r["im_c"])) for r in rows])
    M = (len(c) - 1) // 2
    A = hill_matrix(job.a, job.b, math.pi / 2, M)
    mu = complex(np.vdot(c, A @ c) / np.vdot(c, c))
    res = float(np.linalg.norm(A @ c - mu * c)
                / (np.linalg.norm(A, 2) * np.linalg.norm(c)))
    problems = []
    if res > EIGVEC_RTOL:
        problems.append(f"eigenfunction_n{n}: relative residual {res:.3e}")
    band = ns == n
    order = np.argsort(ts[band])
    tb, lb = ts[band][order], lam[band][order]
    curve = complex(np.interp(math.pi / 2, tb, lb.real),
                    np.interp(math.pi / 2, tb, lb.imag))
    if abs(mu - curve) > 1e-3 * (1.0 + abs(curve)):
        problems.append(f"eigenfunction_n{n}: lambda {mu} is not band {n}'s "
                        f"curve value {curve} at t = pi/2")
    return problems


CHECKS = {"expand": check_expand, "singularities": check_singularities,
          "classify": check_classify, "spectrum": check_spectrum}


def check(job: Job, out: Path) -> List[str]:
    return CHECKS[job.command](job, out)


def is_known_fault(job: Job, problems: List[str]) -> bool:
    """The known self-adjoint fault, on any self-adjoint job: spurious
    interior singularities, no ESS, and nothing else wrong."""
    return job.b == job.a.conjugate() and problems == [SPURIOUS]
