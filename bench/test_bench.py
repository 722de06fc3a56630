"""Tests of the benchmark's own parts: inputs, checks and tracer.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    for r in range(3):
        assert workloads.round_jobs(workload, 7, r) == \
            workloads.round_jobs(workload, 7, r)
    assert workloads.round_jobs(workload, 7, 0) != \
        workloads.round_jobs(workload, 8, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_jobs_of_a_run_share_a_potential(workload):
    for seed in range(10):
        seen = {(workloads.WARMUP_A, workloads.WARMUP_B)}
        for r in range(12):
            for job in workloads.round_jobs(workload, seed, r):
                assert (job.a, job.b) not in seen
                seen.add((job.a, job.b))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_classes_and_forms(workload):
    forms = set()
    for r in range(2):
        for job in workloads.round_jobs(workload, 3, r):
            if job.klass == "sa":
                assert job.b == job.a.conjugate()
                assert abs(job.a * job.b) < workloads.COUPLING_SIMPLE_BOUND
            elif job.klass == "eq":
                assert job.b != job.a.conjugate()
                assert math.isclose(abs(job.a), abs(job.b), rel_tol=1e-12)
            elif job.klass == "un":
                assert not math.isclose(abs(job.a), abs(job.b), rel_tol=0.2)
            else:
                assert job.a * job.b == 0 and job.a + job.b != 0
            forms.add(checks.expected_form(job.a, job.b))
    assert forms == {"Gasymov", "Elegant", "AsymptoticallyElegant"}


def test_windows_hold_one_square():
    for workload in ("singularities", "classify"):
        for r in range(5):
            for job in workloads.round_jobs(workload, 11, r):
                if job.window != workloads.FAULT_WINDOW:
                    assert len(checks._squares_in(job.window)) == 1


def test_every_classify_pair_of_rounds_has_one_faulty_self_adjoint_job():
    # |a| <= 0.65 at k = 3 shows the known fault; k = 2, 4, 5 do not
    for seed in range(20):
        third_gaps = 0
        for r in range(2):
            for job in workloads.round_jobs("classify", seed, r):
                if job.klass == "sa" and job.window != workloads.FAULT_WINDOW:
                    assert 0.4 <= abs(job.a) <= 0.65
                    third_gaps += checks._squares_in(job.window) == [
                        (3 * math.pi) ** 2]
        assert third_gaps == 1


def test_fault_job_is_a_translate_of_the_named_potential():
    assert workloads.fault_job(0).argv("o")[:4] == [
        "classify", "--a=0.5+0.5i", "--b=0.5-0.5i", "--window=62.8,119.35"]
    for r in range(6):
        job = workloads.fault_job(r)
        assert job.window == workloads.FAULT_WINDOW
        assert job.b == job.a.conjugate()
        assert math.isclose(abs(job.a), abs(workloads.FAULT_A), rel_tol=1e-15)


def test_argv_round_trips_negative_amplitudes():
    from mathieuspec.cli import config_from_argv
    job = Job("classify", "un", -0.5 + 0.25j, 1e-3 - 2.0j, window=(1.5, 2.5))
    cfg = config_from_argv(job.argv("out")[:-1])
    assert (cfg.a, cfg.b, cfg.window) == (job.a, job.b, job.window)


# --------------------------------------------------------------------------
# checks: a right answer passes, a wrong one is rejected
# --------------------------------------------------------------------------

def _write_json(path: Path, name: str, payload: dict) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(json.dumps(payload), encoding="utf-8")
    return path


def _point(lam, t):
    lam, t = complex(lam), complex(t)
    return {"lambda_re": lam.real, "lambda_im": lam.imag, "t_re": t.real,
            "t_im": t.imag, "family": "interior", "n_guess": 1}


def test_expand_check(tmp_path):
    job = Job("expand", "eq", 1.5 + 0j, 1.5j, n_max=4)
    good = {"form": "AsymptoticallyElegant", "max_residual": 3e-10}
    assert checks.check(job, _write_json(tmp_path / "a", "expansion.json",
                                         good)) == []
    for bad in ({**good, "form": "Elegant"}, {**good, "max_residual": 0.5},
                {**good, "max_residual": float("nan")}):
        assert checks.check(job, _write_json(tmp_path / "b", "expansion.json",
                                             bad))


def _critical_point(a, b, lam0, t0):
    """(lambda*, t*) near (lam0, t0) where two eigenvalues of the check
    matrix meet: a secant solve of (lambda_1 - lambda_2)^2 = 0 in t."""
    def pair(t):
        ev = np.linalg.eigvals(checks.hill_matrix(a, b, t))
        i, j = np.argsort(np.abs(ev - lam0))[:2]
        return ev[i], ev[j]

    def disc(t):
        l1, l2 = pair(t)
        return (l1 - l2) ** 2

    ta, tb = complex(t0), complex(t0) + 1e-3
    da, db = disc(ta), disc(tb)
    for _ in range(50):
        if abs(tb - ta) <= 1e-14 or db == da:
            break
        ta, tb = tb, tb - db * (tb - ta) / (db - da)
        da, db = db, disc(tb)
    l1, l2 = pair(tb)
    return 0.5 * (l1 + l2), tb


def test_singularities_check_two_sided(tmp_path):
    job = Job("singularities", "un", 0.8 + 0.1j, -0.5 + 0.7j,
              window=(7.0, 13.0))
    lam, t = _critical_point(job.a, job.b, 9.9, math.pi - 0.05)

    def verdict(points, name):
        return checks.check(job, _write_json(
            tmp_path / name, "critical_points.json",
            {"critical_points": points}))

    assert verdict([_point(lam, t)], "good") == []
    # lambda moved along the band, with its own t: an eigenvalue, but a
    # simple one
    t_band = t + 0.01
    ev = np.linalg.eigvals(checks.hill_matrix(job.a, job.b, t_band))
    lam_band = ev[np.argmin(np.abs(ev - lam))]
    assert verdict([_point(lam_band, t_band)], "band")
    assert verdict([_point(lam + 1e-3, t)], "moved")
    assert verdict([], "empty")
    assert verdict([_point(lam, t), _point(lam, t)], "doubled")


def test_singularities_check_one_sided(tmp_path):
    job = Job("singularities", "os", 0j, 0.8 + 0.3j, window=(30.0, 50.0))
    good = {"critical_points": [_point(TWO_PI ** 2, 0.0)]}
    assert checks.check(job, _write_json(tmp_path / "a",
                                         "critical_points.json", good)) == []
    for bad in ([], [_point(TWO_PI ** 2 + 1e-3, 0.0)],
                [_point(TWO_PI ** 2, 0.0), _point(TWO_PI ** 2, 0.0)]):
        assert checks.check(job, _write_json(
            tmp_path / "b", "critical_points.json", {"critical_points": bad}))


def _classification(form, spectral, sing=(), ess=()):
    return {"expansion_form": form, "asymptotically_spectral": spectral,
            "singularities": list(sing), "ess": list(ess)}


def test_classify_check(tmp_path):
    one_sided = Job("classify", "os", 0j, 0.8 + 0.3j, window=(30.0, 50.0))
    ess = [_point(TWO_PI ** 2, 0.0)]
    good = _classification("Gasymov", "fails", ess, ess)
    assert checks.check(one_sided, _write_json(
        tmp_path / "a", "classification.json", good)) == []
    for bad in (_classification("Elegant", "fails", ess, ess),
                _classification("Gasymov", "holds", ess, ess),
                _classification("Gasymov", "fails", ess, [])):
        assert checks.check(one_sided, _write_json(
            tmp_path / "b", "classification.json", bad))

    unequal = Job("classify", "un", 1.0 + 0j, 0.5j, window=(30.0, 50.0))
    assert checks.check(unequal, _write_json(
        tmp_path / "c", "classification.json",
        _classification("Elegant", "undecided-float")))


def test_classify_check_self_adjoint_and_the_known_fault(tmp_path):
    spurious = [_point(88.8296, math.pi - 3e-6j)]
    bad = _write_json(tmp_path / "a", "classification.json",
                      _classification("Elegant", "holds", spurious))
    fault = workloads.fault_job(0)
    seeded = Job("classify", "sa", 0.3 - 0.5j, 0.3 + 0.5j,
                 window=(82.1, 95.9))
    for job in (fault, seeded):
        problems = checks.check(job, bad)
        assert problems and checks.is_known_fault(job, problems)
        good = _write_json(tmp_path / "b", "classification.json",
                           _classification("Elegant", "holds"))
        assert checks.check(job, good) == []
    two_sided = Job("classify", "eq", 0.3 - 0.5j, 0.5 + 0.3j,
                    window=(82.1, 95.9))
    assert not checks.is_known_fault(two_sided, checks.check(two_sided, bad))
    for other in (_classification("Gasymov", "holds", spurious),
                  _classification("Elegant", "holds", spurious, spurious),
                  _classification("Elegant", "holds",
                                  [{**spurious[0], "family": "antiperiodic"}])):
        path = _write_json(tmp_path / "c", "classification.json", other)
        problems = checks.check(fault, path)
        assert problems and not checks.is_known_fault(fault, problems)


def _write_spectrum(path: Path, job: Job, grid, shift=0.0):
    """Artifacts of a one-sided potential: curves (2 pi n + |t|)^2 and the
    eigenvectors of the check matrix at t = pi/2."""
    path.mkdir(parents=True, exist_ok=True)
    lines = ["n,t,re_lambda,im_lambda,residual"]
    for n in range(-job.n_max, job.n_max + 1):
        for t in map(float, grid):
            lam = (TWO_PI * n + abs(t)) ** 2 + (shift if n == -job.n_max else 0)
            lines.append(f"{n},{t!r},{lam!r},0.0,1e-12")
    (path / "curves.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    M = 20
    w, v = np.linalg.eig(checks.hill_matrix(job.a, job.b, math.pi / 2, M))
    for n in range(-job.n_max, job.n_max + 1):
        c = v[:, np.argmin(np.abs(w - (TWO_PI * n + math.pi / 2) ** 2))]
        rows = ["k,re_c,im_c"] + [f"{k},{float(z.real)!r},{float(z.imag)!r}"
                                  for k, z in zip(range(-M, M + 1), c)]
        (path / f"eigenfunction_n{n}.csv").write_text(
            "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_spectrum_check(tmp_path):
    job = Job("spectrum", "os", 0j, 0.6 - 0.2j, n_max=2)
    grid = np.concatenate([-np.linspace(math.pi, 0.1, 20),
                           np.linspace(0.0, math.pi, 21)])
    assert checks.check(job, _write_spectrum(tmp_path / "a", job, grid)) == []
    assert checks.check(job, _write_spectrum(tmp_path / "b", job, grid,
                                             shift=1e-3))
    broken = _write_spectrum(tmp_path / "c", job, grid)
    (broken / "eigenfunction_n1.csv").write_text(
        (broken / "eigenfunction_n0.csv").read_text(encoding="utf-8"),
        encoding="utf-8")
    assert checks.check(job, broken)


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

def test_tracer_spans_and_restore():
    from mathieuspec import cli, potential
    originals = (cli.config_from_argv, cli.parse_complex,
                 potential.parse_complex)
    tracer = tracing.Tracer().install()
    try:
        assert cli.parse_complex is potential.parse_complex
        tracer.job = 3
        cli.config_from_argv(["classify", "--a=1+2i", "--b=-0.5-0.5i"])
    finally:
        tracer.restore()
    assert (cli.config_from_argv, cli.parse_complex,
            potential.parse_complex) == originals
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["cli.config_from_argv", "cli.build_parser",
                     "potential.parse_complex", "potential.parse_complex"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]
    assert {s[tracing.JOB] for s in tracer.spans} == {3}


def test_layer_metrics_self_time():
    # root cli span 0..10 holding floquet.eig 1..4 and a BandSolver.solution
    # 5..9 that runs an eig 6..8 (a miss) and one 9..9.5 that does not (a hit)
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0.0, None],
        ["floquet.eig", 1.0, 4.0, 0, 0, 0.0, True],
        ["floquet.BandSolver.solution", 5.0, 9.0, 0, 0, 0.0, None],
        ["floquet.eig", 6.0, 8.0, 2, 0, 0.0, False],
        ["floquet.BandSolver.solution", 9.0, 9.5, 0, 0, 0.0, None],
        ["discriminant.solve_ivp", 9.5, 9.75, 0, 0, 0.0, 40],
    ]
    m = tracing.layer_metrics(spans, 2, 6)
    assert m["cli.self_s"] == pytest.approx((10 - 3 - 4 - 0.5 - 0.25) / 2)
    assert m["floquet.self_s"] == pytest.approx(7.5 / 2)
    assert m["floquet.eig.calls"] == 1.0
    assert m["floquet.eig.hermitian_calls"] == 0.5
    assert m["floquet.eig.s"] == pytest.approx(2.5)
    assert m["floquet.BandSolver.solution.hit_ratio"] == 0.5
    assert m["discriminant.solve_ivp.nfev"] == 20
    assert m["expansion.skipped_nodes"] == 3


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    printed = dict.fromkeys(tracing.layer_metrics([], 1, 0))
    printed["trace.job_s.p50"] = None
    assert tracing.unit_of("trace.job_s.p50") == "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit_of(name) for name in printed}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "jobs_per_min", "job_s.p50", "peak_rss_mb"}
