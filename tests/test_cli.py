import json
import subprocess
import sys

import pytest

from mdpgeom import parse_model
from mdpgeom.cli import main

from conftest import make_model
from mdpgeom.modelfile import emit_model


@pytest.fixture
def swap_file(tmp_path, swap_model):
    path = tmp_path / "swap.json"
    path.write_text(emit_model(swap_model))
    return str(path)


@pytest.fixture
def discounted_file(tmp_path):
    m = make_model(
        2, 0.5, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1]), (1, 0.2, [1, 0])]
    )
    path = tmp_path / "disc.json"
    path.write_text(emit_model(m))
    return str(path)


class TestValidate:
    def test_ok(self, swap_file, capsys):
        assert main(["validate", swap_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_violations_to_stderr_exit_2(self, tmp_path, swap_model, capsys):
        doc = json.loads(emit_model(swap_model))
        doc["saps"][0]["probs"] = [0.5, 0.6]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert "row sum" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == 2

    def test_syntax_error(self, tmp_path, capsys):
        p = tmp_path / "syntax.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2
        assert "line" in capsys.readouterr().err


class TestSolve:
    def test_average(self, swap_file, capsys):
        assert main(["solve", swap_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criterion"] == "average"
        assert doc["policy"] == [0, 1]
        assert doc["gain"] == pytest.approx(1.0)
        assert doc["C"] == 2.0

    def test_discounted_with_anchor_rejected_criterion(self, discounted_file, capsys):
        assert main(["solve", discounted_file, "--criterion", "average"]) == 2

    def test_discounted(self, discounted_file, capsys):
        assert main(["solve", discounted_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criterion"] == "discounted"
        assert doc["values"] is not None
        assert doc["gain"] is None


class TestAnalyze:
    def test_unichain_policy(self, swap_file, capsys):
        assert main(["analyze", swap_file, "--policy", "0,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["is_unichain"] is True
        assert doc["unichain_by_invertibility"] is True
        assert doc["stationary_distribution"] == pytest.approx([0.5, 0.5])
        assert doc["primitivity"] is None  # period-2 kernel

    def test_bad_policy_arg(self, swap_file, capsys):
        assert main(["analyze", swap_file, "--policy", "1,0"]) == 2
        assert main(["analyze", swap_file, "--policy", "a,b"]) == 2


class TestNormalize:
    def test_writes_normalized_model(self, swap_file, tmp_path, capsys):
        out = tmp_path / "norm.json"
        assert main(["normalize", swap_file, "-o", str(out)]) == 0
        norm = parse_model(out.read_text())
        assert abs(norm.saps[0].reward) <= 1e-10
        assert abs(norm.saps[1].reward) <= 1e-10

    def test_explicit_policy(self, discounted_file, tmp_path):
        out = tmp_path / "norm2.json"
        assert main(["normalize", discounted_file, "-o", str(out), "--policy", "0,1"]) == 0
        norm = parse_model(out.read_text())
        assert abs(norm.saps[0].reward) <= 1e-10
        assert abs(norm.saps[1].reward) <= 1e-10


class TestConverge:
    def test_report_and_trace_files(self, discounted_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["converge", discounted_file, "-o", str(out), "--steps", "12"]) == 0
        report = json.loads((out / "report.json").read_text())
        trace = (out / "trace.csv").read_text().splitlines()
        assert report["bound_satisfied"] in (True, None)
        assert trace[0] == "t,span,ratio,greedy_policy_hash"
        assert len(trace) == len(report["span_trace"]) + 1
        # span column round-trips exactly
        assert float(trace[1].split(",")[1]) == report["span_trace"][0]

    def test_strict_exit_3_on_periodic_kernel(self, swap_file, capsys):
        assert main(["converge", swap_file, "--strict"]) == 3
        err = capsys.readouterr().err
        assert "aperiodic" in err

    def test_non_strict_exit_0(self, swap_file, capsys):
        assert main(["converge", swap_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]["aperiodic"] is False
        assert doc["bound_satisfied"] is None

    def test_random_v0_seeded(self, discounted_file, capsys):
        assert main(["converge", discounted_file, "--v0", "random", "--seed", "5"]) == 0
        first = json.loads(capsys.readouterr().out)["v0"]
        assert main(["converge", discounted_file, "--v0", "random", "--seed", "5"]) == 0
        second = json.loads(capsys.readouterr().out)["v0"]
        assert first == second


class TestGammaNearOne:
    """Discounted values grow like 1/(1 - gamma); the residual checks must scale with them."""

    @pytest.fixture
    def near_one_file(self, tmp_path):
        path = tmp_path / "near_one.json"
        argv = ["generate", "--n", "5", "--saps", "2", "--seed", "4", "--gamma", "0.999999"]
        assert main(argv + ["-o", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("command", ["solve", "converge"])
    def test_exit_0(self, near_one_file, command, capsys):
        assert main([command, near_one_file]) == 0, capsys.readouterr().err

    def test_exit_0_without_asserts(self, near_one_file):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "mdpgeom.cli", "converge", near_one_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--n", "4", "--saps", "2", "--gamma", "0.9", "--seed", "7"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert parse_model(a.read_text()).n == 4

    def test_entry_point_runs(self, tmp_path):
        # console-script path: python -m mdpgeom.cli
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mdpgeom.cli",
                "generate",
                "--n",
                "3",
                "--saps",
                "2",
                "--gamma",
                "1.0",
                "--seed",
                "1",
                "-o",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestSweep:
    def test_byte_identical_reruns(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 3,
                    "saps_per_state": 2,
                    "gamma": 1.0,
                    "reward_range": [0, 1],
                    "sparsity": 0.2,
                    "seed": 0,
                }
            )
        )
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        base = ["sweep", "--spec", str(spec), "--trials", "6", "--seed", "3"]
        assert main(base + ["-o", str(d1)]) == 0
        assert main(base + ["-o", str(d2)]) == 0
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
        assert (d1 / "sweep.json").read_bytes() == (d2 / "sweep.json").read_bytes()

    @pytest.mark.parametrize("trials", [0, 3])
    def test_one_csv_row_per_trial(self, tmp_path, trials):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"n": 3, "saps_per_state": 2, "gamma": 0.9, "seed": 0})
        )
        out = tmp_path / "sw"
        argv = ["sweep", "--spec", str(spec), "--trials", str(trials), "-o", str(out)]
        assert main(argv) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("trial,seed,n,gamma,")
        assert len(rows) == 1 + trials
