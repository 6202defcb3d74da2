import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mdpgeom
from mdpgeom import chains, cli, convergence, geometry, modelfile, parse_model
from mdpgeom.cli import main

from conftest import count_calls, make_model, package_env
from mdpgeom.errors import NumericalCheckError
from mdpgeom.generate import GeneratorSpec, SplitMix64, generate_model, uniform_vector
from mdpgeom.model import lowest_index_policy
from mdpgeom.modelfile import emit_model
from mdpgeom.reporting import SweepRow, _json_safe, sweep_files


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

    def test_nan_probability_exit_2(self, tmp_path, swap_model, capsys):
        doc = json.loads(emit_model(swap_model))
        doc["saps"][0]["probs"] = [float("nan"), 1.0]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert "sap 0: row sum nan != 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sap, key, value, code, message",
        [
            # an int64 cannot hold this state; it is still an input error, not an OverflowError
            (2, "state", 1e30, 2, "sap 2: state 1000000000000000019884624838656 outside [0, 2)"),
            # nor is a JSON null read as NaN or passed to int() or float()
            (0, "probs", [None, 1.0], 2, "sap 0: transition entry null is not a number"),
            # a JSON string or boolean is not read as the number it spells or as 0 or 1
            (0, "probs", ["0.5", "0.5"], 2, 'sap 0: transition entry "0.5" is not a number'),
            (1, "probs", [0.5, 0.25, 0.25], 2, "sap 1: transition row has length 3, expected 2"),
            # a fractional number is refused, not truncated; sap None sets a top-level key
            (2, "state", 1.7, 2, "sap 2: state 1.7 is not an integer"),
            (None, "n", 2.9, 2, "n 2.9 is not an integer"),
            # a JSON boolean is not read as 0 or 1
            (0, "state", False, 2, "sap 0: state false is not an integer"),
            (1, "reward", True, 2, "sap 1: reward true is not a number"),
            (None, "n", True, 2, "n true is not an integer"),
            (None, "gamma", True, 2, "gamma true is not a number"),
            (None, "schema_version", True, 2, "unsupported schema_version True"),
            (0, "probs", [True, False], 2, "sap 0: transition entry true is not a number"),
            (1, "probs", [False, 1.0], 2, "sap 1: transition entry false is not a number"),
            (None, "n", "2", 2, 'n "2" is not an integer'),
            (None, "gamma", "0.9", 2, 'gamma "0.9" is not a number'),
            (0, "state", "0", 2, 'sap 0: state "0" is not an integer'),
            (1, "reward", "nan", 2, 'sap 1: reward "nan" is not a number'),
            (None, "n", None, 2, "n null is not an integer"),
            (None, "gamma", None, 2, "gamma null is not a number"),
            (2, "state", None, 2, "sap 2: state null is not an integer"),
            (1, "reward", None, 2, "sap 1: reward null is not a number"),
            (2, "probs", [0.0, None], 2, "sap 2: transition entry null is not a number"),
        ],
        ids=[
            "state-1e30", "null-entry", "string-entries", "ragged", "state-1.7", "n-2.9",
            "state-false", "reward-true", "n-true", "gamma-true", "version-true",
            "bool-entries", "bool-entry", "n-string", "gamma-string", "state-string", "reward-string",
            "n-null", "gamma-null", "state-null", "reward-null", "null-last-entry",
        ],
    )
    def test_awkward_documents(self, tmp_path, capsys, sap, key, value, code, message):
        # outcomes as before the model held arrays
        doc = {
            "schema_version": 1,
            "n": 2,
            "gamma": 0.9,
            "saps": [
                {"state": 0, "reward": 1.0, "probs": [0.5, 0.5]},
                {"state": 1, "reward": 0.0, "probs": [1.0, 0.0]},
                {"state": 1, "reward": 0.5, "probs": [0.0, 1.0]},
            ],
        }
        (doc if sap is None else doc["saps"][sap])[key] = value
        path = tmp_path / "awkward.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == code
        err = capsys.readouterr().err
        assert message in err if code else err == ""

    @pytest.mark.parametrize("args", [["validate"], ["solve"], ["converge"], ["analyze", "--policy", "0,1,2"]])
    def test_negative_entry_refused_by_every_command(self, tmp_path, capsys, args):
        # the row sums to 1 within 1e-12, but an entry below 0 is refused as check_stochastic refuses it
        doc = {
            "schema_version": 1,
            "n": 3,
            "gamma": 1.0,
            "saps": [
                {"state": 0, "reward": 1.0, "probs": [0.5, 0.5 + 1e-13, -1e-13]},
                {"state": 1, "reward": 0.0, "probs": [0.0, 0.0, 1.0]},
                {"state": 2, "reward": 0.0, "probs": [1.0, 0.0, 0.0]},
            ],
        }
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert main([args[0], str(path), *args[1:]]) == 2
        assert "sap 0: transition entries outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["state", "reward", "probs"])
    def test_real_beyond_float_range_exit_2(self, tmp_path, swap_model, key, capsys):
        # an integer no double holds is an input error, not an internal one
        doc = json.loads(emit_model(swap_model))
        doc["saps"][0][key] = [10**400, 0] if key == "probs" else 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "sap 0: " in err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == 2

    def test_syntax_error(self, tmp_path, capsys):
        p = tmp_path / "syntax.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2
        assert "line" in capsys.readouterr().err

    def test_undecodable_byte_in_a_later_chunk(self, tmp_path, capsys):
        # the file is read a chunk at a time, but the message and its byte position
        # are those of decoding the whole file
        path = tmp_path / "model.json"
        spec = GeneratorSpec(n=400, saps_per_state=4, gamma=0.9, sparsity=0.9, seed=1)
        mdpgeom.write_model(generate_model(spec).model, path)
        data = bytearray(path.read_bytes())
        assert len(data) > 5_000_000 > 4 * modelfile._CHUNK
        data[5_000_000] = 0xFF
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 5000000: invalid start byte\n"
        )


class TestSolve:
    def test_average(self, swap_file, capsys):
        assert main(["solve", swap_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criterion"] == "average"
        assert doc["policy"] == [0, 1]
        assert doc["gain"] == pytest.approx(1.0)
        assert doc["C"] == 2.0

    def test_discounted(self, discounted_file, capsys):
        assert main(["solve", discounted_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criterion"] == "discounted"
        assert doc["values"] is not None
        assert doc["gain"] is None

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    @pytest.mark.parametrize("anchor", ["9", "-1"])
    def test_anchor_outside_states_exit_2(self, tmp_path, gamma, anchor, capsys):
        # -1 used to anchor at the last state while printing "anchor_state": -1, and
        # 9 ended in an IndexError traceback with exit 1
        model = tmp_path / "m.json"
        argv = ["generate", "--n", "4", "--saps", "2", "--gamma", str(gamma), "--seed", "2"]
        assert main(argv + ["-o", str(model)]) == 0
        capsys.readouterr()
        assert main(["solve", str(model), "--anchor", anchor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--anchor {anchor} outside [0, 4)" in captured.err


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

    def test_multichain_policy(self, tmp_path, capsys):
        path = tmp_path / "absorbing.json"
        path.write_text(emit_model(make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])))
        assert main(["analyze", str(path), "--policy", "0,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["closed_class_count"] == 2
        assert doc["unichain_by_invertibility"] is False
        assert doc["stationary_distribution"] is None

    def test_classifies_once(self, swap_file, monkeypatch, capsys):
        calls = count_calls(monkeypatch, [(chains, "classify_chain"), (cli, "classify_chain")])
        assert main(["analyze", swap_file, "--policy", "0,1"]) == 0
        assert calls["classify_chain"] == 1


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

    def test_two_vi_runs(self, discounted_file, tmp_path, monkeypatch):
        # the verified run on the normalized model, and the raw run for report.json
        calls = count_calls(monkeypatch, [(convergence, "_run_stack")])
        assert main(["converge", discounted_file, "-o", str(tmp_path / "run")]) == 0
        assert calls["_run_stack"] == 2

    def test_one_copy_of_the_rows(self, tmp_path, capsys):
        # the read, the plans and both value iterations of a whole converge, traced: one copy
        # of the transition rows, the verified run's greedy picks and 1.5 MiB (5.7 MiB in all
        # here). Rows held dense and stacked on reading, the search's temporaries and the raw
        # run's unread picks took it to 7.6 MiB.
        path, steps = str(tmp_path / "model.json"), 1000
        args = ["--n", "300", "--saps", "4", "--gamma", "0.99", "--sparsity", "0.9", "--seed", "1"]
        assert main(["generate", *args, "-o", path]) == 0
        probs = generate_model(GeneratorSpec(300, 4, 0.99, sparsity=0.9, seed=1)).model.sap_probs
        picks = 8 * 300 * (steps + 1)
        argv = ["converge", path, "--steps", str(steps), "-o", str(tmp_path / "run")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes + picks + 2**20 + 2**19
        assert len((tmp_path / "run" / "trace.csv").read_text().splitlines()) == steps + 2

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


class TestNonFiniteReward:
    """validate accepts a NaN or infinite reward; the solving commands reject it with exit 2."""

    @pytest.fixture(params=[0.9, 1.0], ids=["discounted", "average"])
    def reward_file(self, request, tmp_path):
        def write(reward):
            m = make_model(
                2, request.param, [(0, 1.0, [0.5, 0.5]), (0, reward, [1, 0]), (1, 0.0, [0, 1])]
            )
            path = tmp_path / "reward.json"
            path.write_text(emit_model(m))
            return str(path)

        return write

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("command", ["solve", "converge", "normalize"])
    def test_exit_2_naming_the_sap(self, reward_file, tmp_path, reward, command, capsys):
        path = reward_file(reward)
        assert main(["validate", path]) == 0
        argv = [command, path] + (["-o", str(tmp_path / "out.json")] if command == "normalize" else [])
        assert main(argv) == 2
        assert f"sap 1: reward {reward!r} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", [None, "1,2", "0,2"])
    def test_normalize_rejects_nan_reward(self, reward_file, tmp_path, policy, capsys):
        # every reward becomes an advantage, so one NaN anywhere is rejected
        out = tmp_path / "out.json"
        argv = ["normalize", reward_file(math.nan), "-o", str(out)]
        assert main(argv + (["--policy", policy] if policy else [])) == 2
        assert "sap 1: reward nan is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestLargeRewards:
    """The gain/bias residual bound scales with the rewards: large rewards are no multichain."""

    @pytest.mark.parametrize("reward_hi", ["1e6", "1e12"])
    def test_solve_and_converge(self, tmp_path, reward_hi, capsys):
        path = str(tmp_path / "large.json")
        argv = ["generate", "--n", "6", "--saps", "3", "--gamma", "1.0", "--sparsity", "0.3"]
        assert main(argv + ["--seed", "5", "--reward-hi", reward_hi, "-o", path]) == 0
        assert main(["solve", path]) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert main(["converge", path, "--strict"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == {"unique": True, "unichain": True, "aperiodic": True}


class TestSearchReused:
    """solve and normalize take pi*'s solve and advantages from the search's last round."""

    @pytest.mark.parametrize("gamma", ["0.95", "1.0"])
    @pytest.mark.parametrize("command", ["solve", "normalize"])
    def test_no_evaluation_after_the_search(self, tmp_path, monkeypatch, gamma, command, capsys):
        path = tmp_path / "m.json"
        argv = ["generate", "--n", "6", "--saps", "3", "--sparsity", "0.3", "--seed", "2"]
        assert main(argv + ["--gamma", gamma, "-o", str(path)]) == 0
        calls = count_calls(monkeypatch, [(geometry, "evaluate_policy")])
        geometry.optimal_policy(parse_model(path.read_text()))
        search = calls["evaluate_policy"]
        out = ["-o", str(tmp_path / "norm.json")] if command == "normalize" else []
        assert main([command, str(path)] + out) == 0
        # the search's evaluations again, and none more
        assert calls["evaluate_policy"] == 2 * search


class TestBeyondTheEnumerationCap:
    def test_converge_exit_0(self, tmp_path, capsys):
        # 4^10 policies: more than enumeration takes, which made converge exit 2
        path = str(tmp_path / "big.json")
        argv = ["generate", "--n", "10", "--saps", "4", "--gamma", "1.0", "--sparsity", "0.3"]
        assert main(argv + ["--seed", "0", "-o", path]) == 0
        capsys.readouterr()
        assert main(["converge", path, "--strict"]) == 0, capsys.readouterr().err
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == {"unique": True, "unichain": True, "aperiodic": True}


class TestMultichainOptimum:
    """At gamma = 1 a multichain policy can earn more than every unichain one from some start state."""

    @pytest.fixture
    def model_file(self, tmp_path, capsys):
        # policy 1,3,4,6,9 has two closed classes and earns 0.5170 from states 0, 1, 3 and 4;
        # the best unichain policy, 0,2,4,7,8, earns 0.4155
        path = str(tmp_path / "multichain.json")
        argv = ["generate", "--n", "5", "--saps", "2", "--gamma", "1", "--sparsity", "0.7", "--seed", "3"]
        assert main(argv + ["-o", path]) == 0
        capsys.readouterr()
        return path

    def test_solve_exit_2(self, model_file, capsys):
        assert main(["solve", model_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "optimum is multichain" in captured.err

    def test_converge_reports_failed_diagnostics(self, model_file, capsys):
        assert main(["converge", model_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == {"unique": False, "unichain": False, "aperiodic": False}


class TestUnichainOptimumBehindAMultichainStart:
    """The start has two closed classes, and the discounted optimum near gamma = 1 keeps them;
    the optimum moves state 0 into state 1's class and earns 1 from both states."""

    @pytest.fixture
    def model_file(self, tmp_path):
        m = make_model(2, 1.0, [(0, 1.0 - 1e-7, [1, 0]), (0, 0.0, [0, 1]), (1, 1.0, [0, 1])])
        path = tmp_path / "behind.json"
        path.write_text(emit_model(m))
        return str(path)

    def test_solve(self, model_file, capsys):
        assert main(["solve", model_file]) == 0, capsys.readouterr().err
        doc = json.loads(capsys.readouterr().out)
        assert (doc["policy"], doc["gain"]) == ([1, 2], 1.0)

    def test_converge(self, model_file, capsys):
        assert main(["converge", model_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        # state 0 is transient, so the kernel is not irreducible and has no positive power
        assert doc["diagnostics"] == {"unique": True, "unichain": True, "aperiodic": False}


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
            env=package_env(),
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
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.parametrize("lo, hi", [("-inf", "inf"), ("-1e308", "1e308")], ids=["infinite", "overflowing"])
    def test_reward_range_must_be_finite(self, tmp_path, capsys, lo, hi):
        # exit 2 naming reward_range, and no model is written
        argv = ["generate", "--n", "3", "--saps", "2", "--gamma", "0.9", "--seed", "1"]
        argv += [f"--reward-lo={lo}", f"--reward-hi={hi}"]
        out = tmp_path / "m.json"
        assert main(argv + ["-o", str(out)]) == 2
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "reward_range" in captured.err
        assert not out.exists()


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

    def test_one_vi_run_per_trial(self, tmp_path, monkeypatch):
        # one lockstep run of 3 rows, recording spans only, since no sweep column reads
        # a greedy policy; the raw model's trace reaches neither sweep.csv nor sweep.json,
        # so it is never run
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 4, "saps_per_state": 2, "gamma": 0.9}))
        stacks = record_stacks(monkeypatch)
        argv = ["sweep", "--spec", str(spec), "--trials", "3", "-o", str(tmp_path / "sw")]
        assert main(argv) == 0
        assert stacks == [(3, False)]

    def test_the_first_failing_trial_stops_the_sweep(self, tmp_path, monkeypatch, capsys):
        # trial `late` fails in the evaluation for its gap and trial `late` + 4 in the
        # first round of its search, which the lockstep plan of the chunk reaches first;
        # the sweep stops with trial `late`'s error, as when each trial is planned alone
        spec = {"n": 12, "saps_per_state": 4, "gamma": 0.95, "sparsity": 0.7}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        models = [generate_model(GeneratorSpec(seed=s, **spec)).model for s in range(12)]
        plans = convergence._plans([(m, None) for m in models], None)
        late = next(t for t in range(2, 8) if plans[t].diagnostics.all_pass)
        failing = {
            late: plans[late].run_model.sap_rewards[plans[late].pi_star.choice],
            late + 4: models[late + 4].sap_rewards[lowest_index_policy(models[late + 4]).choice],
        }
        solve = geometry.solve

        def failing_solve(a, b):
            for trial, rewards in failing.items():
                if np.array_equal(b, rewards):
                    raise NumericalCheckError(f"solve failed in trial {trial}")
            return solve(a, b)

        monkeypatch.setattr(geometry, "solve", failing_solve)
        chunks, plans_of = [], convergence._plans
        monkeypatch.setattr(convergence, "_plans", lambda pairs, steps: chunks.append(len(pairs)) or plans_of(pairs, steps))
        argv = ["sweep", "--spec", str(path), "--trials", "12", "-o", str(tmp_path / "out")]
        assert main(argv) == 2
        stacked = capsys.readouterr().err
        assert chunks == [12]
        monkeypatch.setattr(convergence, "VI_STACK_BYTES", 0)  # a chunk of one trial each
        assert main(argv) == 2
        assert capsys.readouterr().err == stacked == f"error: solve failed in trial {late}\n"
        assert chunks[1:] == [1] * (late + 1)
        assert not (tmp_path / "out").exists()

    def test_trials_over_the_stack_budget_split_into_runs(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 12, "saps_per_state": 4, "gamma": 0.95, "sparsity": 0.7}))
        base = ["sweep", "--spec", str(spec), "--trials", "9", "--seed", "2", "-o"]
        stacks = record_stacks(monkeypatch)
        assert main(base + [str(tmp_path / "one")]) == 0
        assert stacks == [(9, False)]
        # three trials' transition rows, and spans for runs of up to 60 steps
        monkeypatch.setattr(convergence, "VI_STACK_BYTES", 3 * 8 * (12 * 48 + 61))
        stacks.clear()
        assert main(base + [str(tmp_path / "split")]) == 0
        heights = [height for height, greedy in stacks if not greedy]
        assert len(heights) == len(stacks) > 3 and sum(heights) == 9 and max(heights) <= 3
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "split" / name).read_bytes()

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
        assert len(json.loads((out / "sweep.json").read_text())["rows"]) == trials

    def test_gamma_near_one_sweeps_as_gamma_one(self, tmp_path):
        # the gamma -> 1 link at the CLI: at gamma = 1 - 1e-9 the trials of the sweep-avg
        # spec get the verdicts they get at gamma = 1, and only ties of gamma = 1 differ
        # in uniqueness, on trials that gamma = 1 excludes
        tables = []
        for gamma in (1 - 1e-9, 1.0):
            path, out = tmp_path / f"spec-{gamma}.json", tmp_path / f"sw-{gamma}"
            path.write_text(json.dumps({"n": 6, "saps_per_state": 3, "gamma": gamma, "sparsity": 0.3}))
            assert main(["sweep", "--spec", str(path), "--trials", "40", "--seed", "0", "-o", str(out)]) == 0
            tables.append(list(csv.DictReader((out / "sweep.csv").read_text().splitlines())))
        near, at_one = tables
        for column in ("excluded", "bound_satisfied", "unichain", "aperiodic", "exponent"):
            assert [row[column] for row in near] == [row[column] for row in at_one], column
        ties = [t for t, (a, b) in enumerate(zip(near, at_one)) if a["unique"] != b["unique"]]
        assert ties and all(at_one[t]["excluded"] == "true" for t in ties)

    @pytest.mark.parametrize("seed", [-3, 2**64 - 1], ids=["negative", "wraps-to-zero"])
    def test_edge_seeds_match_trial_by_trial(self, tmp_path, seed):
        # a chunk's models and start vectors are drawn together, with the bits
        # each trial's seed draws alone; from 2**64 - 1, trial 1's seed wraps to state 0
        spec = {"n": 12, "saps_per_state": 4, "gamma": 0.95, "sparsity": 0.7}
        path, out = tmp_path / "spec.json", tmp_path / "sw"
        path.write_text(json.dumps(spec))
        argv = ["sweep", "--spec", str(path), "--trials", "5", "--seed", str(seed), "-o", str(out)]
        assert main(argv) == 0
        rows = []
        for trial in range(5):
            s = seed + trial
            model = generate_model(GeneratorSpec(seed=s, **spec)).model
            v0 = uniform_vector(SplitMix64(s ^ cli.V0_SEED_XOR), model.n)
            rows.append(cli._sweep_row(trial, s, convergence.verify_contraction(model, v0=v0)))
        assert (out / "sweep.csv").read_text() == sweep_files({"trials": 5}, rows, {})[0]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_sweep_json_rows_match_the_json_encoder(self, count):
        # rows are written from _fmt cells; the reference is json's indented encoder
        # over _json_safe, the writer they replace, on every cell spelling a row can hold
        cells = [None, True, False, 0, -7, 0.0, -0.0, 0.1, 5e-324, 1e300, math.nan, math.inf, -math.inf]
        names = [f.name for f in dataclasses.fields(SweepRow)]
        rows = [SweepRow(*(cells[(r + i) % len(cells)] for i in range(len(names)))) for r in range(count)]
        head = {"sweep_version": 1, "trials": count, "excluded": 0, "exclusion_rate": 0.0, "bound_failures": 0}
        provenance = cli._provenance(command="sweep", seed=0, spec={"n": 3, "reward_range": [0.0, 1.0]})
        expected = json.dumps(_json_safe({**head, "rows": rows, "provenance": provenance}), indent=2) + "\n"
        assert sweep_files(head, rows, provenance)[1] == expected

    def test_both_files_carry_the_same_cells(self):
        # one _fmt pass feeds both files: an empty CSV cell is a JSON null, a non-finite
        # real the same quoted word, and every other cell the JSON value's spelling
        special = [None, math.nan, math.inf, -math.inf]
        names = [f.name for f in dataclasses.fields(SweepRow)]
        rows = [
            SweepRow(*(special[(r + i) % 4] if i % 3 else [7, 0.25, True][r % 3] for i in range(len(names))))
            for r in range(5)
        ]
        table, doc = sweep_files({"trials": 5}, rows, {})
        lines = table.splitlines()
        assert lines[0] == ",".join(names)
        objects = json.loads(doc)["rows"]
        assert [list(obj) for obj in objects] == [names] * len(rows)
        spelled = {None: "", True: "true", False: "false"}
        for line, obj in zip(lines[1:], objects):
            cells = [spelled[v] if v is None or isinstance(v, bool) else str(v) if isinstance(v, (int, str))
                     else repr(v) for v in obj.values()]
            assert line.split(",") == cells
        for cell in ("nan", "inf", "-inf", ""):
            assert cell in lines[1].split(",") + lines[2].split(",")


SPEC = {"n": 3, "saps_per_state": 2, "gamma": 0.9}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({}, "spec key 'n' is missing"),
        ({"n": 3, "gamma": 0.9}, "spec key 'saps_per_state' is missing"),
        ([], "spec must be an object, not list"),
        ({**SPEC, "n": None}, "spec key 'n': n null is not an integer"),
        ({**SPEC, "gamma": "high"}, 'spec key \'gamma\': gamma "high" is not a number'),
        ({**SPEC, "reward_range": 5}, "spec key 'reward_range': reward_range 5 is not a list of two numbers"),
        ({**SPEC, "reward_range": [0, 1, 2]}, "spec key 'reward_range': reward_range [0, 1, 2] is not a list"),
        ({**SPEC, "n": 3.5}, "spec key 'n': n 3.5 is not an integer"),
        ({**SPEC, "saps_per_state": 2.5}, "spec key 'saps_per_state': saps_per_state 2.5 is not an integer"),
        ({**SPEC, "seed": 1.5}, "spec key 'seed': seed 1.5 is not an integer"),
        # a JSON boolean is not read as 0 or 1
        ({"n": True, "saps_per_state": 2, "gamma": True}, "spec key 'n': n true is not an integer"),
        ({**SPEC, "gamma": True}, "spec key 'gamma': gamma true is not a number"),
        ({**SPEC, "reward_range": [False, 1]}, "spec key 'reward_range': reward_range false is not a number"),
        ({**SPEC, "seed": False}, "spec key 'seed': seed false is not an integer"),
        # nor is a JSON string read as the number it spells
        ({**SPEC, "reward_range": "01"}, 'spec key \'reward_range\': reward_range "01" is not a list'),
        ({**SPEC, "n": "3"}, 'spec key \'n\': n "3" is not an integer'),
        ({**SPEC, "sparsity": "0.3"}, 'spec key \'sparsity\': sparsity "0.3" is not a number'),
        # nor a JSON null passed to int() or float()
        ({**SPEC, "gamma": None}, "spec key 'gamma': gamma null is not a number"),
        ({**SPEC, "saps_per_state": None}, "spec key 'saps_per_state': saps_per_state null is not an integer"),
        ({**SPEC, "sparsity": None}, "spec key 'sparsity': sparsity null is not a number"),
        ({**SPEC, "seed": None}, "spec key 'seed': seed null is not an integer"),
        ({**SPEC, "reward_range": [0, None]}, "spec key 'reward_range': reward_range null is not a number"),
        # generation needs a finite reward range of finite width
        ({**SPEC, "reward_range": [-math.inf, math.inf]}, "reward_range [-inf, inf] must be finite"),
        ({**SPEC, "reward_range": [-1e308, 1e308]}, "reward_range [-1e+308, 1e+308] must be finite"),
    ],
    ids=[
        "empty", "no-saps", "list", "null-n", "text-gamma", "scalar-range", "long-range", "n", "saps", "seed",
        "bool-n", "bool-gamma", "bool-range", "bool-seed", "text-range", "text-n", "text-sparsity",
        "null-gamma", "null-saps", "null-sparsity", "null-seed", "null-range",
        "infinite-range", "overflowing-range",
    ],
)
def test_malformed_spec_is_an_input_error(tmp_path, capsys, spec, message):
    # a spec that does not describe a generator is exit 2 naming the key, before any output
    path, out = tmp_path / "spec.json", tmp_path / "sw"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(path), "--trials", "2", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "{model}", "-o", "{file}"],
        ["sweep", "--spec", "{spec}", "--trials", "1", "-o", "{file}"],
        ["validate", "{file}/x.json"],
        ["generate", "--n", "2", "--saps", "2", "--gamma", "0.9", "--seed", "0", "-o", "{file}/x.json"],
    ],
    ids=["converge-into-file", "sweep-into-file", "validate-below-file", "generate-below-file"],
)
def test_path_errors_are_input_errors(tmp_path, capsys, discounted_file, argv):
    # an output directory that is a file (FileExistsError), or a path through a file
    # (NotADirectoryError), is exit 2 with the system's message, not an internal error
    spec, file = tmp_path / "spec.json", tmp_path / "file"
    spec.write_text(json.dumps({"n": 3, "saps_per_state": 2, "gamma": 0.9}))
    file.write_text("")
    assert main([arg.format(model=discounted_file, spec=spec, file=file) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "Traceback" not in err


class TestNegativeCounts:
    """A negative --trials or --steps is an argument error (exit 2), before any work."""

    def test_sweep_trials(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 3, "saps_per_state": 2, "gamma": 0.9}))
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spec", str(spec), "--trials", "-1", "-o", str(out)])
        assert exc.value.code == 2
        assert "argument --trials: -1 is negative" in capsys.readouterr().err
        assert not out.exists()

    def test_converge_steps(self, discounted_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge", discounted_file, "--steps", "-3"])
        assert exc.value.code == 2
        assert "argument --steps: -3 is negative" in capsys.readouterr().err

    def test_zero_steps_accepted(self, discounted_file, capsys):
        assert main(["converge", discounted_file, "--steps", "0"]) == 0


class TestCachedParser:
    """main parses with one parser per process; no call may see another's arguments."""

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path):
        model, spec = tmp_path / "m.json", tmp_path / "spec.json"
        argv = ["generate", "--n", "5", "--saps", "3", "--gamma", "0.9", "--seed", "4"]
        assert main(argv + ["-o", str(model)]) == 0
        spec.write_text(json.dumps({"n": 4, "saps_per_state": 2, "gamma": 0.9, "sparsity": 0.3}))
        runs = [
            (["converge", str(model), "--steps", "5", "-o"], ["report.json", "trace.csv"]),
            (["converge", str(model), "-o"], ["report.json", "trace.csv"]),
            (["sweep", "--spec", str(spec), "--trials", "3", "-o"], ["sweep.csv", "sweep.json"]),
        ]
        for k, (argv, names) in enumerate(runs):
            assert main(argv + [str(tmp_path / f"in-{k}")]) == 0
        assert cli._parser() is cli._parser()
        for k, (argv, names) in enumerate(runs):
            fresh = tmp_path / f"fresh-{k}"
            proc = subprocess.run(
                [sys.executable, "-m", "mdpgeom.cli", *argv, str(fresh)],
                capture_output=True,
                text=True,
                env=package_env(),
            )
            assert proc.returncode == 0, proc.stderr
            for name in names:
                assert (tmp_path / f"in-{k}" / name).read_bytes() == (fresh / name).read_bytes()


def record_stacks(monkeypatch):
    """Record (rows, greedy) of each lockstep value-iteration run."""
    stacks, run_stack = [], convergence._run_stack

    def recorded(models, v0s, budgets, greedy=True):
        stacks.append((len(models), greedy))
        return run_stack(models, v0s, budgets, greedy)

    monkeypatch.setattr(convergence, "_run_stack", recorded)
    return stacks


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    """Output digests computed before the evaluation paths were merged: any moved float fails."""

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                {"n": 6, "saps_per_state": 3, "gamma": 1.0, "sparsity": 0.3, "seed": 0},
                "dd81285991ab16ff6fed77c54ea35db9575a66b2b1c9ecfc7748718e48a1e1c7",
            ),
            # trial 1 has a periodic optimal kernel and is excluded
            (
                {"n": 12, "saps_per_state": 4, "gamma": 0.95, "sparsity": 0.7, "seed": 0},
                "8656ee72019b93f82d226e3bb2bbfd853e76ebd45b9310a3d26e12891bc4e9c6",
            ),
        ],
        ids=["average", "discounted"],
    )
    def test_sweep_csv(self, tmp_path, spec, digest):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sw"
        assert main(["sweep", "--spec", str(path), "--trials", "4", "--seed", "11", "-o", str(out)]) == 0
        assert _sha256((out / "sweep.csv").read_bytes()) == digest

    def test_sweep_without_unichain_policies(self, tmp_path):
        # every trial takes the no-unichain branch, where the raw run is the only run
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 6, "saps_per_state": 2, "gamma": 1.0, "sparsity": 0.9}))
        out = tmp_path / "sw"
        assert main(["sweep", "--spec", str(path), "--trials", "5", "--seed", "0", "-o", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert all(",false,false,false,,," in row for row in rows)
        csv_digest = _sha256((out / "sweep.csv").read_bytes())
        assert csv_digest == "ad51a1444c796f27817ecb2679b0fef7869b2f9bec3980080af7cf00cc072739"
        json_digest = _sha256((out / "sweep.json").read_bytes())
        assert json_digest == "ff4a921cb22f907a8074e89170b1a9c655d60c43e92fd45509add81605419f9a"

    @pytest.mark.parametrize(
        "trials, seed, csv_digest, json_digest",
        [
            # 15 of 40 trials are excluded; their runs stop at other steps than the certified ones
            (
                40,
                0,
                "6734e7813862846f76915743b5d842e92e15b4264749f3cdb99106d3fa3417a2",
                "9bcf3826ff3000886260c9efcffb16d879e762cea4e614325de728415840573d",
            ),
            # more trials than one stacked value-iteration run holds
            (
                150,
                7,
                "566ce6511e3ddc3447b380410bf27475696efbb6c8be118a2cc9540114078dd9",
                "14b2544e33a5cb9ab3e612a4af2be879ab5f43088bbdbe3d3c0e00112fd8e703",
            ),
        ],
        ids=["40-trials", "several-chunks"],
    )
    def test_sweep_disc_digests(self, tmp_path, trials, seed, csv_digest, json_digest):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"n": 12, "saps_per_state": 4, "gamma": 0.95, "sparsity": 0.7, "seed": 0})
        )
        out = tmp_path / "sw"
        argv = ["sweep", "--spec", str(path), "--trials", str(trials), "--seed", str(seed)]
        assert main(argv + ["-o", str(out)]) == 0
        assert _sha256((out / "sweep.csv").read_bytes()) == csv_digest
        assert _sha256((out / "sweep.json").read_bytes()) == json_digest

    @pytest.mark.parametrize(
        "generate, converge, length, report_digest, trace_digest",
        [
            (
                "--n 8 --saps 3 --gamma 0.5 --sparsity 0.4 --seed 5",
                "--steps 200",
                30,  # stops at the span floor long before 200 steps
                "c77fbf6f68c33e050b33c3b5f43ef8f50f047c1767cd15b3ed5eeaccf88ae1ea",
                "2c4dab5307e19c675c54f556aaee1598a334914dbfa9c4cda0b2a76cd397d6e8",
            ),
            (
                "--n 6 --saps 3 --gamma 1.0 --sparsity 0.3 --seed 3",
                "--v0 random --seed 1 --steps 40",
                34,
                "ee4e07d0b4249bc8622257042ced8665da02d3a5636889d7ca70ad7a9ebf1706",
                "6f5f24ffa1344c79d7d4c24b144d4e71c7c65423fbdc8946d6f1fa59109bc8b5",
            ),
        ],
        ids=["early-stop", "average"],
    )
    def test_converge_digests(
        self, tmp_path, generate, converge, length, report_digest, trace_digest
    ):
        model = tmp_path / "m.json"
        assert main(["generate"] + generate.split() + ["-o", str(model)]) == 0
        out = tmp_path / "run"
        assert main(["converge", str(model)] + converge.split() + ["-o", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["span_trace"]) == length
        del doc["provenance"]  # names the input path
        assert _sha256(json.dumps(doc, indent=2).encode()) == report_digest
        assert _sha256((out / "trace.csv").read_bytes()) == trace_digest

    @pytest.mark.parametrize(
        "gamma, policy, digest",
        [
            ("0.95", None, "94a31a3692ff930d2da270989e6f9c93f16042c1ef35244249ac0bc36ee21124"),
            (
                "1.0",
                ",".join(str(4 * s) for s in range(50)),
                "a4951ae68fee712562ae7e27c44063b71f74c5c41a57c1992569f5831cf1cb19",
            ),
        ],
        ids=["optimal", "explicit-policy"],
    )
    def test_normalize(self, tmp_path, gamma, policy, digest):
        model = tmp_path / "m.json"
        argv = ["generate", "--n", "50", "--saps", "4", "--sparsity", "0.3", "--seed", "3"]
        assert main(argv + ["--gamma", gamma, "-o", str(model)]) == 0
        out = tmp_path / "norm.json"
        policy_args = ["--policy", policy] if policy else []
        assert main(["normalize", str(model), "-o", str(out)] + policy_args) == 0
        assert _sha256(out.read_bytes()) == digest

    @pytest.mark.parametrize(
        "sparsity, digest",
        [
            ("0.3", "e2c2142a10feccad609422be4db54a29750b803e1a8a878d78ec7ef539a647c0"),
            ("0.7", "d0cd3fc8828c3d940f71fd38ecb679f63043039a019db613f2e9744aa279c55b"),
        ],
    )
    def test_solve_average(self, tmp_path, capsys, sparsity, digest):
        # pins the gain and bias bits of the gamma = 1 search; at 0.7 the optimum is not unique
        model = tmp_path / "m.json"
        argv = ["generate", "--n", "6", "--saps", "3", "--gamma", "1.0", "--sparsity", sparsity]
        assert main(argv + ["--seed", "3", "-o", str(model)]) == 0
        capsys.readouterr()
        assert main(["solve", str(model)]) == 0
        assert _sha256(capsys.readouterr().out.encode()) == digest

    @pytest.mark.parametrize(
        "sparsity, digest",
        [
            ("0.3", "5cd37e87aedf61a0af795133047490650c5dfc6408950cc63c0800e0ed82ff51"),
            ("0.7", "55aa322758e41a003b8a0637a3517592db02bf55f5fc975cf9a2657e9ae5e10e"),
        ],
    )
    def test_solve_discounted(self, tmp_path, capsys, sparsity, digest):
        # pins V* as to_classical_values converts it from the shifted system's solve
        model = tmp_path / "m.json"
        argv = ["generate", "--n", "6", "--saps", "3", "--gamma", "0.95", "--sparsity", sparsity]
        assert main(argv + ["--seed", "3", "-o", str(model)]) == 0
        capsys.readouterr()
        assert main(["solve", str(model)]) == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == digest
        doc = json.loads(out)
        oracle = mdpgeom.evaluate_discounted(parse_model(model.read_text()), mdpgeom.Policy(doc["policy"]))
        np.testing.assert_allclose(doc["values"], oracle.values, rtol=1e-12)

    def test_converge_report_and_trace(self, tmp_path):
        model = tmp_path / "m.json"
        argv = ["generate", "--n", "8", "--saps", "3", "--gamma", "0.9", "--sparsity", "0.4"]
        assert main(argv + ["--seed", "5", "-o", str(model)]) == 0
        out = tmp_path / "run"
        argv = ["converge", str(model), "--v0", "random", "--seed", "2", "--steps", "30"]
        assert main(argv + ["-o", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        del doc["provenance"]  # names the input path
        report = _sha256(json.dumps(doc, indent=2).encode())
        assert report == "7210faa9b6381b4272fc68c129c93cbb532363802ac090f54bfc1bd1e1c95d6f"
        trace = _sha256((out / "trace.csv").read_bytes())
        assert trace == "89854ecee7855f491641c4a9327d3870a6993260241b9c787ad446b74f8cecf2"
