"""Seeded job lists for the four benchmark workloads.

A run is a sequence of rounds.  Round ``r`` of a workload always has the
same slots in the same order; the seed only draws the amplitudes (and the
window jitter) inside each slot, from a generator keyed on (seed, round),
so a round's inputs do not depend on how many rounds the run reaches.

Potential classes (``singularities`` has five slots, one per window
k = 1..5, and the classes rotate over them; the other workloads have one
slot per class, and ``classify`` adds the known-fault job):

* ``sa``  self-adjoint, b = conj(a), |a| in [0.4, 0.65];
* ``eq``  equal moduli, b != conj(a);
* ``un``  unequal moduli, |b/a| in [1.7, 4] or its inverse;
* ``os``  one-sided, a = 0 or b = 0.

``eq`` and ``un`` alternate |ab| below and above 16/9 with the round
parity, so every two rounds run both the Elegant and the
AsymptoticallyElegant forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

WORKLOADS = ("expand", "singularities", "classify", "spectrum")
CLASSES = ("sa", "eq", "un", "os")

#: Wall seconds of one round on the reference machine (2 cores, default
#: BLAS threads).  A run makes round(seconds / ROUND_SECONDS) rounds, at
#: least one, so that it measures about --seconds there; the job list is
#: then fixed by the seed and --seconds alone, and two runs of one seed
#: run the same jobs on every commit.
ROUND_SECONDS = {"expand": 9.5, "singularities": 6.5, "classify": 10.5,
                 "spectrum": 7.5}


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))

#: |ab| below this gives the Elegant form, above it AsymptoticallyElegant.
COUPLING_SIMPLE_BOUND = 16.0 / 9.0

EXPAND_NMAX = 4
SPECTRUM_NMAX = 6

#: Self-adjoint job in which ``detect_singularities`` reports a spurious
#: interior singularity at lambda ~ 88.8296 (inside the third
#: antiperiodic gap).  It fails the independent check on every run.
FAULT_A = 0.5 + 0.5j
FAULT_WINDOW = (62.8, 119.35)
#: Round r runs the fault job on the potential translated by r golden
#: angles (a -> a w, b -> b conj(w), |w| = 1): the same spectrum, but a new
#: potential, so no ODE result cached by an earlier round is reused.
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: Potential of the untimed job that starts the BLAS threads and the
#: lazy imports before the first timed job.
WARMUP_A, WARMUP_B = 0.3 + 0.1j, 0.2 - 0.3j


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its check needs to know."""

    command: str
    klass: str
    a: complex
    b: complex
    window: Optional[Tuple[float, float]] = None
    n_max: Optional[int] = None

    def argv(self, out: str) -> List[str]:
        args = [self.command, f"--a={fmt_complex(self.a)}",
                f"--b={fmt_complex(self.b)}"]
        if self.window is not None:
            args.append(f"--window={self.window[0]!r},{self.window[1]!r}")
        if self.n_max is not None:
            args.append(f"--nmax={self.n_max}")
        return args + [f"--out={out}"]


def fmt_complex(z: complex) -> str:
    """'RE+IMi' with repr floats, which the CLI parses back exactly.

    Passed as ``--a=...``: a value starting with '-' after a separate
    ``--a`` is taken by argparse for an option and rejected.
    """
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _polar(rng, r_lo: float, r_hi: float) -> complex:
    return complex(rng.uniform(r_lo, r_hi)
                   * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def draw_potential(klass: str, large: bool, rng) -> Tuple[complex, complex]:
    """(a, b) of the given class; ``large`` puts |ab| above 16/9."""
    if klass == "sa":
        # |a| <= 0.65 keeps every third gap in the range of the spurious
        # singularity (|a| <~ 0.72 at k = 3, see README), so a seeded
        # classify job at k = 3 fails on every seed, not on some
        a = _polar(rng, 0.4, 0.65)
        return a, a.conjugate()
    if klass == "eq":
        a = _polar(rng, 1.45, 1.8) if large else _polar(rng, 0.5, 1.15)
        # b != conj(a): the phase of ab stays away from 0
        psi = rng.uniform(0.3, 2.0 * math.pi - 0.3)
        return a, complex(a.conjugate() * np.exp(1j * psi))
    if klass == "un":
        g = rng.uniform(1.45, 1.8) if large else rng.uniform(0.5, 1.15)
        s = rng.uniform(1.3, 2.0)
        if rng.uniform() < 0.5:
            s = 1.0 / s
        a = _polar(rng, g * s, g * s)
        b = _polar(rng, g / s, g / s)
        return a, b
    if klass == "os":
        z = _polar(rng, 0.5, 1.5)
        return (0j, z) if rng.uniform() < 0.5 else (z, 0j)
    raise ValueError(f"unknown class {klass!r}")


def _window(k: int, rng) -> Tuple[float, float]:
    """Window around (k pi)^2 holding no other (j pi)^2, jittered."""
    c = (k * math.pi) ** 2
    h = 0.7 * k * math.pi
    lo = c - h * rng.uniform(0.9, 1.1)
    hi = c + h * rng.uniform(0.9, 1.1)
    return round(lo, 4), round(hi, 4)


def fault_job(r: int) -> Job:
    w = complex(np.exp(1j * GOLDEN_ANGLE * r)) if r else 1.0
    a = FAULT_A * w
    return Job("classify", "sa", a, a.conjugate(), window=FAULT_WINDOW)


def warmup_job() -> Job:
    return Job("spectrum", "un", WARMUP_A, WARMUP_B, n_max=1)


def round_jobs(workload: str, seed: int, r: int) -> List[Job]:
    """The jobs of round ``r``; the same (workload, seed, r) gives the same
    jobs.  Every round of a workload has the same make-up of classes and
    windows, so rounds cost about the same whatever their index."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, r, WORKLOADS.index(workload)])

    def potential(klass):
        large = klass in ("eq", "un") and (r + (klass == "un")) % 2 == 1
        return draw_potential(klass, large, rng)

    if workload == "singularities":
        # the ODE cost grows with lambda: one window per k = 1..5, the
        # classes rotating over them from round to round
        jobs = []
        for k in range(1, 6):
            klass = CLASSES[(k + r) % len(CLASSES)]
            a, b = potential(klass)
            jobs.append(Job(workload, klass, a, b, window=_window(k, rng)))
        return jobs
    jobs = []
    for slot, klass in enumerate(CLASSES):
        a, b = potential(klass)
        if workload == "expand":
            jobs.append(Job(workload, klass, a, b, n_max=EXPAND_NMAX))
        elif workload == "spectrum":
            jobs.append(Job(workload, klass, a, b, n_max=SPECTRUM_NMAX))
        else:
            # k = 2..5, the classes rotating over them from round to round
            k = 2 + (slot + r) % 4
            jobs.append(Job(workload, klass, a, b, window=_window(k, rng)))
    if workload == "classify":
        jobs.append(fault_job(r))
    return jobs
