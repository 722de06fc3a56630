"""Command-line front end: configuration, orchestration, serialization.

Subcommands: spectrum, profile, classify, singularities, expand, verify.
Flags override the optional flat key=value config file.  All artifacts are
UTF-8 CSV/JSON with fixed headers and sorted keys, so identical configs
(including the seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import asymptotic as asy
from .discriminant import find_critical_points, fundamental_solutions
from . import expansion as exp_mod
from . import floquet as flq
from . import spectrality as spc
from .errors import (MathieuSpecError, MultipleEigenvalueError,
                     ValidationError)
from .potential import (MathieuPotential, alpha_of, check_diophantine,
                        T_VALID, format_complex, parse_complex,
                        parse_rational, periodic_pair, snap_rational)

SCHEMA_VERSION = 1
COMMANDS = ("spectrum", "profile", "classify", "singularities", "expand",
            "verify")


@dataclass
class JobConfig:
    """Validated run configuration; round-trips through its dict form."""

    command: str
    a: complex = 0.0 + 0.0j
    b: complex = 0.0 + 0.0j
    alpha: Optional[Fraction] = None
    n_max: int = 4
    t_points: int = 96
    m_override: Optional[int] = None
    window: Optional[tuple] = None
    h: float = 0.02
    out: str = "."
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.n_max < 1:
            raise ValidationError("n_max must be >= 1")
        if self.t_points < 64:
            raise ValidationError("t_points must be >= 64")
        if self.window is not None:
            lo, hi = self.window
            if not (lo < hi):
                raise ValidationError("window must satisfy lo < hi")
        if not (0.0 < self.h < T_VALID):
            raise ValidationError("h must sit in (0, 1/(15 pi))")

    @property
    def potential(self) -> MathieuPotential:
        return MathieuPotential(self.a, self.b)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["a"] = format_complex(self.a)
        d["b"] = format_complex(self.b)
        d["alpha"] = str(self.alpha) if self.alpha is not None else None
        d["window"] = list(self.window) if self.window else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobConfig":
        kw = dict(d)
        kw["a"] = parse_complex(kw["a"]) if isinstance(kw["a"], str) else kw["a"]
        kw["b"] = parse_complex(kw["b"]) if isinstance(kw["b"], str) else kw["b"]
        if kw.get("alpha") is not None and isinstance(kw["alpha"], str):
            kw["alpha"] = parse_rational(kw["alpha"])
        if kw.get("window") is not None:
            kw["window"] = tuple(float(x) for x in kw["window"])
        return cls(**kw)


def read_config_file(path: str) -> dict:
    """Flat key=value text; blank lines and # comments ignored."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as ValidationError (exit 1, JSON on stderr)
    rather than as usage text with exit 2, which means numerical failure."""

    def error(self, message):
        raise ValidationError(message)


#: A complex literal with a leading minus, which argparse takes for a flag.
_NEGATIVE_LITERAL = re.compile(r"^-[\d.]")


def _join_negative_amplitudes(argv):
    """'--a -0.5+0.5i' -> '--a=-0.5+0.5i'."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--a", "--b") and _NEGATIVE_LITERAL.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="mathieuspec",
        description="Floquet spectrum, projection norms and spectral-"
                    "expansion classification of the two-term Hill operator")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--a", help='complex literal "RE", "RE+IMi" or "IMi"')
        sp.add_argument("--b", help='complex literal "RE", "RE-IMi" or "-IMi"')
        sp.add_argument("--alpha-exact", dest="alpha",
                        help='exact rational "m/q" for arg(ab)/pi')
        sp.add_argument("--nmax", dest="n_max", type=int)
        sp.add_argument("--tpoints", dest="t_points", type=int)
        sp.add_argument("--m-override", dest="m_override", type=int)
        sp.add_argument("--window", help='"lo,hi" lambda window')
        sp.add_argument("--h", type=float)
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--config", help="flat key=value config file")
    return p


def config_from_argv(argv) -> JobConfig:
    ns = build_parser().parse_args(_join_negative_amplitudes(argv))
    merged = {}
    if ns.config:
        merged.update(read_config_file(ns.config))
    for key in ("a", "b", "alpha", "n_max", "t_points", "m_override",
                "window", "h", "out", "seed"):
        val = getattr(ns, key, None)
        if val is not None:
            merged[key] = val
    kw = {"command": ns.command}
    if "a" in merged:
        kw["a"] = parse_complex(str(merged["a"]))
    if "b" in merged:
        kw["b"] = parse_complex(str(merged["b"]))
    if merged.get("alpha") is not None:
        kw["alpha"] = parse_rational(str(merged["alpha"]))
    try:
        for key, cast in (("n_max", int), ("t_points", int),
                          ("m_override", int), ("seed", int), ("h", float)):
            if merged.get(key) is not None:
                kw[key] = cast(merged[key])
        if merged.get("window") is not None:
            w = merged["window"]
            if isinstance(w, str):
                parts = w.split(",")
                if len(parts) != 2:
                    raise ValidationError('window must be "lo,hi"')
                w = (float(parts[0]), float(parts[1]))
            kw["window"] = tuple(w)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if merged.get("out") is not None:
        kw["out"] = str(merged["out"])
    return JobConfig(**kw)


def _write_json(path: Path, payload: dict):
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _fmt(x: float) -> str:
    return repr(float(x))


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _cmd_spectrum(cfg: JobConfig, out: Path) -> dict:
    pot = cfg.potential
    curves = flq.track_curves(
        pot, t_grid=flq.default_grid(cfg.t_points),
        n_range=range(-cfg.n_max, cfg.n_max + 1), M=cfg.m_override)
    lines = ["n,t,re_lambda,im_lambda,residual"]
    for n, t, lam, res in curves.rows():
        lines.append(",".join([str(n), _fmt(t), _fmt(lam.real),
                               _fmt(lam.imag), _fmt(res)]))
    (out / "curves.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    solver = flq.BandSolver(pot, curves)
    anchor = solver.bands([math.pi / 2], curves.n_values)
    for r, n in enumerate(curves.n_values):
        if not anchor.ok[0, r]:
            raise MultipleEigenvalueError(
                f"band {n} at t=pi/2 is not resolvably simple")
        rows = ["k,re_c,im_c"]
        rows.extend(",".join([str(int(k)), _fmt(c.real), _fmt(c.imag)])
                    for k, c in zip(solver.ks, anchor.right[0, :, r]))
        (out / f"eigenfunction_n{n}.csv").write_text(
            "\n".join(rows) + "\n", encoding="utf-8")
    _write_json(out / "pairing.json", {
        "pair_labels": curves.pair_labels,
        "ambiguities": curves.ambiguities,
        "tracking": {"M": curves.M, "window_M": curves.window_M,
                     "eigensolves": curves.eigensolves}})
    if not pot.is_free:
        ts = [0.004, 0.01, 0.02, math.pi / 2, math.pi - 0.01]
        bands = [n for n in curves.n_values if 1 <= abs(n) <= min(cfg.n_max, 6)]
        rows = asy.comparison_rows(pot, bands, ts, curves.value)
        (out / "asymptotic_comparison.csv").write_text(
            asy.comparison_csv(rows), encoding="utf-8")
    return {"files": ["curves.csv", "pairing.json"],
            "bands": curves.n_values, "M": curves.M}


def _cmd_profile(cfg: JobConfig, out: Path) -> dict:
    pot = cfg.potential
    solver = spc.make_solver(pot, cfg.n_max, cfg.t_points)
    pos = solver.curves.t_samples
    grid = np.unique(np.concatenate([-pos[1:-1], pos]))
    lines = ["n,t,abs_dn,method"]
    excluded = {}
    for prof in spc.dn_profiles(pot, range(1, cfg.n_max + 1), grid,
                                solver=solver):
        for (t, d, method) in sorted(prof.samples):
            lines.append(",".join([str(prof.n), _fmt(t), _fmt(d), method]))
        excluded[str(prof.n)] = prof.excluded
    (out / "profile.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "profile_excluded.json", {"excluded": excluded})
    return {"files": ["profile.csv", "profile_excluded.json"]}


def _cmd_classify(cfg: JobConfig, out: Path) -> dict:
    report = spc.classify_operator(cfg.potential, alpha_input=cfg.alpha,
                                   singularity_window=cfg.window)
    payload = report.to_dict()
    _write_json(out / "classification.json", payload)
    return payload


def _cmd_singularities(cfg: JobConfig, out: Path) -> dict:
    pot = cfg.potential
    window = cfg.window or (0.5, (2.0 * math.pi * (cfg.n_max + 0.75)) ** 2)
    points = find_critical_points(pot, window)
    payload = {"window": list(window),
               "critical_points": [c.to_dict() for c in points]}
    _write_json(out / "critical_points.json", payload)
    return payload


def _cmd_expand(cfg: JobConfig, out: Path) -> dict:
    pot = cfg.potential
    f = exp_mod.TestFunction("gaussian", center=0.0, width=1.0)
    plan = exp_mod.make_plan(pot, cfg.n_max, h=cfg.h)
    xs = np.linspace(-2.0, 2.0, 9)
    report = exp_mod.reconstruct(pot, f, plan, xs)
    payload = report.to_dict()
    _write_json(out / "expansion.json", payload)
    return payload


def _cmd_verify(cfg: JobConfig, out: Path) -> dict:
    pot = cfg.potential
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    lam_probe = (2.0 * math.pi * 1.5) ** 2 + 0.37
    fd = fundamental_solutions(pot, lam_probe)
    check("wronskian-certificate", fd.wronskian_defect <= 1e-10,
          f"defect={fd.wronskian_defect:.3e}")
    check("ode-error-estimate",
          fd.est_error <= 1e-10 * (1.0 + abs(lam_probe)),
          f"est_error={fd.est_error:.3e}")

    solver = spc.make_solver(pot, 3, cfg.t_points)
    if pot.is_free:
        curves = flq.track_curves(pot, n_range=range(-2, 3))
        err = max(abs(curves.curves[n][j] - (2 * math.pi * n + t) ** 2)
                  for n in curves.n_values
                  for j, t in enumerate(curves.t_samples))
        check("free-exactness", err <= 1e-10, f"max_err={err:.3e}")
    else:
        c = float(rng.uniform(0.1, 0.9))
        t_chk = 1.0
        op = flq.assemble(pot, t_chk, solver.M)
        w1 = np.sort_complex(np.linalg.eigvals(op.to_dense()))
        w2 = np.sort_complex(np.linalg.eigvals(
            flq.assemble(pot.rotated(c), t_chk, solver.M).to_dense()))
        drift = max(np.min(np.abs(w2 - lam)) for lam in w1)
        check("phase-rotation-invariance", drift <= 1e-9 * op.scale,
              f"drift={drift:.3e} (c={c:.3f})")

    ok = True
    worst = 0.0
    for n in range(1, 7):
        sv = asy.b_series_leading(MathieuPotential(1.0, pot.b if pot.b else 1.0),
                                  n, (2 * math.pi * n) ** 2, 0.0)
        beta, _ = periodic_pair(
            MathieuPotential(1.0, pot.b if pot.b else 1.0), n)
        dlog = abs(sv.log.log_magnitude - beta.log_magnitude)
        dph = abs(sv.log.phase - beta.phase)
        worst = max(worst, dlog, dph)
        ok = ok and dlog <= 1e-12 and dph <= 1e-12
    check("coupling-closed-form", ok, f"worst={worst:.3e}")

    if pot.ab != 0:
        alpha = cfg.alpha if cfg.alpha is not None else snap_rational(alpha_of(pot))
        if alpha is not None:
            verdict = check_diophantine(alpha)
            brute_fail = None
            q0 = alpha.denominator
            for q in range(1, 4 * q0 + 1):
                val = q * alpha
                if val.denominator == 1 and val.numerator % 2 != 0:
                    brute_fail = (q, (val.numerator + 1) // 2)
                    break
            agree = (verdict.condition8 == "fails") == (brute_fail is not None)
            check("diophantine-brute-force", agree,
                  f"verdict={verdict.condition8} brute={brute_fail}")

    t_s = 0.83
    d, lam, _ = spc._projection_norms(solver, [t_s], [2])
    d_p, lam_p = float(d[0, 0]), complex(lam[0, 0])
    if math.isnan(d_p):
        raise MultipleEigenvalueError(
            f"band 2 at t={t_s!r} is not resolvably simple")
    # the solver reflects -t from t; solve -t directly to test the operator
    # (band 2 sits on k = -2 there)
    _, x, y, _, _, certified = flq.direct_pair(
        pot, solver.M, -t_s, -2, solver.curves.value(2, -t_s))
    d_m = abs(np.vdot(y, x))
    check("dn-symmetry", certified and abs(d_p - d_m) <= 1e-8,
          f"|d(t)-d(-t)|={abs(d_p - d_m):.3e}"
          + ("" if certified else " (direct pair not certified)"))
    res = abs(fundamental_solutions(pot, lam_p).f - 2.0 * math.cos(t_s))
    check("oracle-equivalence", res <= 1e-7, f"|F-2cos t|={res:.3e}")

    for row in checks:
        print("{:32s} {}  {}".format(
            row["name"], "PASS" if row["pass"] else "FAIL", row["detail"]))
    payload = {"checks": checks, "all_pass": all(r["pass"] for r in checks)}
    _write_json(out / "verify.json", payload)
    return payload


def run(cfg: JobConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = {
        "spectrum": _cmd_spectrum,
        "profile": _cmd_profile,
        "classify": _cmd_classify,
        "singularities": _cmd_singularities,
        "expand": _cmd_expand,
        "verify": _cmd_verify,
    }[cfg.command]
    payload = handler(cfg, out)
    if cfg.command == "classify":
        print(json.dumps(payload, sort_keys=True, indent=1))
    if cfg.command == "verify" and not payload["all_pass"]:
        return 2
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = config_from_argv(argv)
        return run(cfg)
    except (ValidationError, ValueError) as e:
        sys.stderr.write(json.dumps(
            {"error": type(e).__name__, "message": str(e)}) + "\n")
        return 1
    except MathieuSpecError as e:
        sys.stderr.write(json.dumps(
            {"error": type(e).__name__, "message": str(e)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
