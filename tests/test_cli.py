import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mathieuspec.cli import (JobConfig, config_from_argv, main,
                             read_config_file)
from mathieuspec.errors import ValidationError

TWO_PI = 2.0 * math.pi


class TestJobConfig:
    def test_round_trip(self):
        cfg = JobConfig(command="classify", a=1.5 - 0.25j, b=2.0,
                        alpha=Fraction(1, 2), n_max=6, t_points=128,
                        window=(0.0, 100.0), h=0.015, out="/tmp/x", seed=7)
        back = JobConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_validation(self):
        with pytest.raises(ValidationError):
            JobConfig(command="classify", n_max=0)
        with pytest.raises(ValidationError):
            JobConfig(command="classify", t_points=32)
        with pytest.raises(ValidationError):
            JobConfig(command="nope")
        with pytest.raises(ValidationError):
            JobConfig(command="expand", h=0.5)
        with pytest.raises(ValidationError):
            JobConfig(command="spectrum", window=(4.0, 1.0))

    def test_argv_parsing(self):
        cfg = config_from_argv(["classify", "--a", "1.5-0.25i", "--b", "2",
                                "--alpha-exact", "1/2", "--window", "0,50",
                                "--nmax", "3"])
        assert cfg.a == 1.5 - 0.25j and cfg.b == 2.0
        assert cfg.alpha == Fraction(1, 2)
        assert cfg.window == (0.0, 50.0)

    def test_config_file_with_override(self, tmp_path):
        cfile = tmp_path / "job.cfg"
        cfile.write_text("a = 1+0.5i\nb = 1-0.5i\nnmax = 2\n"
                         "# comment\nn_max = 5\nseed = 3\n")
        cfg = config_from_argv(["classify", "--config", str(cfile),
                                "--seed", "9"])
        assert cfg.a == 1 + 0.5j
        assert cfg.n_max == 5
        assert cfg.seed == 9  # flag beats file

    def test_bad_config_line(self, tmp_path):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text("this is not a pair\n")
        with pytest.raises(ValidationError):
            read_config_file(str(cfile))


class TestCommands:
    def test_classify_equal(self, tmp_path, capsys):
        rc = main(["classify", "--a", "1", "--b", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["expansion_form"] == "Elegant"
        assert payload["asymptotically_spectral"] == "holds"
        printed = json.loads(capsys.readouterr().out)
        assert printed["expansion_form"] == "Elegant"

    def test_classify_one_sided(self, tmp_path):
        rc = main(["classify", "--a", "0", "--b", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["expansion_form"] == "Gasymov"

    def test_classify_deterministic(self, tmp_path):
        rc1 = main(["classify", "--a", "2", "--b", "3",
                    "--out", str(tmp_path / "r1"), "--seed", "4"])
        rc2 = main(["classify", "--a", "2", "--b", "3",
                    "--out", str(tmp_path / "r2"), "--seed", "4"])
        assert rc1 == rc2 == 0
        b1 = (tmp_path / "r1" / "classification.json").read_bytes()
        b2 = (tmp_path / "r2" / "classification.json").read_bytes()
        assert b1 == b2

    def test_spectrum_free(self, tmp_path):
        rc = main(["spectrum", "--a", "0", "--b", "0", "--nmax", "3",
                   "--tpoints", "64", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "curves.csv").read_text().splitlines()
        assert rows[0] == "n,t,re_lambda,im_lambda,residual"
        worst = 0.0
        for line in rows[1:]:
            n_s, t_s, re_s, im_s, _ = line.split(",")
            want = (TWO_PI * int(n_s) + abs(float(t_s))) ** 2
            worst = max(worst, abs(float(re_s) - want), abs(float(im_s)))
        assert worst <= 1e-10
        ts = sorted({float(l.split(",")[1]) for l in rows[1:]})
        assert ts[0] < 0 < ts[-1]  # mirrored grid covers (-pi, pi]
        assert (tmp_path / "eigenfunction_n2.csv").read_text().splitlines()[0] \
            == "k,re_c,im_c"

    def test_spectrum_tracking_counts(self, tmp_path):
        for amps in (("1", "2"), ("0", "2")):
            out = tmp_path / amps[0]
            rc = main(["spectrum", "--a", amps[0], "--b", amps[1], "--nmax",
                       "3", "--tpoints", "64", "--out", str(out)])
            assert rc == 0
            tracking = json.loads((out / "pairing.json").read_text())[
                "tracking"]
            assert tracking["M"] == 32 and tracking["window_M"] == 13
            rows = (out / "curves.csv").read_text().splitlines()[1:]
            samples = {abs(float(l.split(",")[1])) for l in rows}
            if amps[0] == "0":
                # one-sided: the eigenvalues are the diagonal
                assert tracking["eigensolves"] == 0
            else:
                # one per sample and one for the window check
                assert tracking["eigensolves"] == len(samples) + 1

    @pytest.mark.parametrize("m", ["4", "5"])
    def test_truncation_below_labels(self, tmp_path, capsys, m):
        # M must hold the labels |n| <= 6: a typed error, not an IndexError
        rc = main(["spectrum", "--a", "1", "--b", "2", "--nmax", "6",
                   "--m-override", m, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "M must be >= 7" in err["message"]

    def test_expand_free(self, tmp_path):
        rc = main(["expand", "--a", "0", "--b", "0", "--nmax", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "expansion.json").read_text())
        assert payload["form"] == "Gasymov"
        assert payload["max_residual"] <= 1e-5

    def test_expand_runs_no_diophantine_scan(self, tmp_path, monkeypatch):
        # the plan and the form guard both read the form off the coupling
        # product (spectrality.expansion_form): no Diophantine scan runs
        import mathieuspec.spectrality as spc
        calls = []
        real = spc.check_diophantine

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spc, "check_diophantine", counting)
        rc = main(["expand", "--a", "0.6", "--b", "0+0.6i", "--nmax", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert calls == []
        payload = json.loads((tmp_path / "expansion.json").read_text())
        assert payload["form"] == "Elegant"

    def test_singularities_one_sided(self, tmp_path):
        rc = main(["singularities", "--a", "0", "--b", "1",
                   "--window", "30,100", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "critical_points.json").read_text())
        lams = sorted(p["lambda_re"] for p in payload["critical_points"])
        assert lams == pytest.approx([(TWO_PI) ** 2, (TWO_PI + math.pi) ** 2],
                                     abs=1e-5)
        for p in payload["critical_points"]:
            assert set(p) == {"lambda_re", "lambda_im", "t_re", "t_im",
                              "family", "n_guess"}

    def test_singularities_newton_stays_in_its_box(self, tmp_path):
        # on the whole window, Newton from a wide box used to run off to
        # lambda ~ -877 + 29i, where the monodromy loses det Y = 1 (exit 2);
        # the window reports what its two halves report together
        def points(window):
            out = tmp_path / window.replace(",", "_")
            assert main(["singularities", "--a", "2", "--b", "0+1.6i",
                         "--window", window, "--out", str(out)]) == 0
            payload = json.loads((out / "critical_points.json").read_text())
            return [(complex(p["lambda_re"], p["lambda_im"]), p["family"])
                    for p in payload["critical_points"]]

        whole = points("0,157.9")
        halves = points("0,100") + points("100,157.9")
        assert len(whole) == len(halves) == 3
        for (lam, fam), (want, fam_want) in zip(whole, halves):
            assert abs(lam - want) <= 1e-7 * (1.0 + abs(want))
            assert fam == fam_want

    def test_verify_passes(self, tmp_path, capsys):
        rc = main(["verify", "--a", "1", "--b", "1", "--out", str(tmp_path),
                   "--seed", "11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["all_pass"]
        names = {c["name"] for c in payload["checks"]}
        assert {"wronskian-certificate", "ode-error-estimate"} <= names

    @pytest.mark.parametrize("a, b", [("0", "1"), ("1", "0"), ("1", "2"),
                                      ("2", "0+1.6i")])
    def test_verify_lists_dn_symmetry(self, tmp_path, a, b):
        # the direct solve at -t always leaves a row: a pair it cannot
        # certify is a FAIL row, never a missing one
        rc = main(["verify", "--a", a, "--b", b, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "verify.json").read_text())
        rows = [c for c in payload["checks"] if c["name"] == "dn-symmetry"]
        assert rc == 0 and payload["all_pass"]
        assert len(rows) == 1 and rows[0]["pass"]

    def test_verify_uncertified_direct_pair_fails(self, tmp_path,
                                                  monkeypatch):
        from mathieuspec import floquet as flq
        real = flq._inverse_iteration

        def broken(pot, M, ts, *rest):
            lam, x, y, res, lres = real(pot, M, ts, *rest)
            if ts[0] < 0:       # only the direct solve at -t breaks down
                lam, res = lam * math.nan, res * math.nan
            return lam, x, y, res, lres

        monkeypatch.setattr(flq, "_inverse_iteration", broken)
        rc = main(["verify", "--a", "1", "--b", "2", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "verify.json").read_text())
        rows = [c for c in payload["checks"] if c["name"] == "dn-symmetry"]
        assert rc == 2 and not payload["all_pass"]
        assert len(rows) == 1 and not rows[0]["pass"]
        assert "not certified" in rows[0]["detail"]

    def test_negative_amplitude_literal(self, tmp_path):
        rc = main(["classify", "--a", "-0.5+0.5i", "--b", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        cfg = config_from_argv(["classify", "--a", "-0.5+0.5i",
                                "--b", "-2", "--nmax", "3"])
        assert cfg.a == -0.5 + 0.5j and cfg.b == -2.0 and cfg.n_max == 3

    def test_pure_imaginary_literals(self):
        cfg = config_from_argv(["classify", "--a", "14.5i", "--b", "-14.5i"])
        assert cfg.a == 14.5j and cfg.b == -14.5j
        assert JobConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--a", "1", "--b", "1", "--nmax", "abc"],
        ["classify", "--a", "1", "--b", "1", "--window", "0,x"],
        ["classify", "--a", "--b", "1"],
        ["classify", "--a", "1", "--bogus", "3"],
        ["nope"],
        [],
    ])
    def test_parse_error_exit_code(self, argv, capsys):
        # argparse's usage text and exit 2 would read as numerical failure
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "ValidationError"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "-h"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_bad_literal_exit_code(self, tmp_path, capsys):
        rc = main(["classify", "--a", "abc", "--b", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"


#: A self-adjoint spectrum job, which takes the Hermitian eigensolve.
SELF_ADJOINT_SPECTRUM = ["spectrum", "--a", "0.5+0.5i", "--b", "0.5-0.5i",
                         "--nmax", "6"]
#: A two-sided classify job whose candidate at t = pi is checked against
#: the endpoint spectrum.
ENDPOINT_CLASSIFY = ["classify",
                     "--a", "0.6001418937643375-0.45700572095201325i",
                     "--b", "-0.5345811105153597-0.5322100693467566i",
                     "--window", "82.6025,95.8225"]

#: Run in a fresh interpreter: the jobs' exit codes, the endpoint spectra
#: and Hermitian eigensolves they made, and the scipy modules loaded after
#: the import and after the jobs.
_FRESH_RUN = """
import contextlib, io, json, sys
import numpy as np
import mathieuspec.cli as cli
from mathieuspec import floquet

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

counts = {"endpoint": 0, "eigh": 0}
def counted(key, real):
    def inner(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)
    return inner
floquet.endpoint_spectrum = counted("endpoint", floquet.endpoint_spectrum)
np.linalg.eigh = counted("eigh", np.linalg.eigh)
after_import = scipy_modules()
out, jobs = sys.argv[1], json.loads(sys.argv[2])
rcs = []
for i, argv in enumerate(jobs):
    with contextlib.redirect_stdout(io.StringIO()):
        rcs.append(cli.main(argv + ["--out", f"{out}/{i}"]))
print(json.dumps({"after_import": after_import, "after_jobs": scipy_modules(),
                  "rcs": rcs, **counts}))
"""


def _fresh_interpreter(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNoScipy:
    """The package runs on numpy alone; scipy is a test dependency."""

    def test_import_loads_no_scipy(self):
        loaded = _fresh_interpreter(
            "-c", "import sys, mathieuspec.cli; print(sorted(m for m in "
                  "sys.modules if m.partition('.')[0] == 'scipy'))")
        assert loaded.strip() == "[]"

    def test_jobs_load_no_scipy(self, tmp_path):
        jobs = [["singularities", "--a", "1", "--b", "2",
                 "--window", "5,15"],
                SELF_ADJOINT_SPECTRUM, ENDPOINT_CLASSIFY]
        got = json.loads(_fresh_interpreter(
            "-c", _FRESH_RUN, str(tmp_path), json.dumps(jobs)))
        assert got["rcs"] == [0, 0, 0]
        # the jobs reached the Hermitian solve and an endpoint check
        assert got["eigh"] > 0 and got["endpoint"] > 0
        assert got["after_import"] == got["after_jobs"] == []


class TestTypedEigensolveErrors:
    """LAPACK's failure to converge is a ConvergenceError: exit code 2."""

    def _raise(self, *args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    @pytest.mark.parametrize("solve, argv, message", [
        ("eigvals", ["spectrum", "--a", "1", "--b", "2", "--nmax", "3"],
         "eigensolver did not converge"),
        ("eigh", SELF_ADJOINT_SPECTRUM, "eigensolver did not converge"),
        ("eig", ENDPOINT_CLASSIFY, "parity block did not converge"),
    ])
    def test_linalg_error_exit_code(self, tmp_path, capsys, monkeypatch,
                                    solve, argv, message):
        monkeypatch.setattr(np.linalg, solve, self._raise)
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
        assert message in err["message"]

