import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from majorize.cli import main, main_entry
from majorize.config import Config

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def inputs(tmp_path):
    return golden.write_inputs(tmp_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_ordered_pair(self, capsys, inputs):
        code, out, _ = run(capsys, "check", inputs["p.json"], inputs["q.json"])
        assert out == golden.CHECK_P_Q
        assert code == 0

    def test_reverse_direction_fails(self, capsys, inputs):
        code, _, _ = run(capsys, "check", inputs["q.json"], inputs["p.json"])
        assert code == 1

    def test_incomparable_pair(self, capsys, inputs):
        code, out, _ = run(capsys, "check", inputs["a.csv"], inputs["b.csv"])
        assert out == golden.CHECK_A_B
        assert code == 1


class TestApprox:
    def test_steepest_stdout(self, capsys, inputs):
        code, out, _ = run(
            capsys, "approx", inputs["p.json"], "--delta", "0.4", "--kind", "steepest"
        )
        assert out == golden.APPROX_STEEPEST
        assert code == 0

    def test_flattest_stdout(self, capsys, inputs):
        code, out, _ = run(
            capsys, "approx", inputs["p.json"], "--delta", "0.4", "--kind", "flattest"
        )
        assert out == golden.APPROX_FLATTEST
        assert code == 0

    def test_output_files(self, capsys, inputs, tmp_path):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        code, _, _ = run(
            capsys,
            "approx",
            inputs["p.json"],
            "--delta",
            "0.4",
            "--kind",
            "steepest",
            "--out",
            str(out_json),
            "--lorenz-out",
            str(out_csv),
        )
        assert code == 0
        assert out_json.read_text() == golden.APPROX_STEEPEST_JSON
        assert out_csv.read_text() == golden.APPROX_STEEPEST_LORENZ

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("steepest", golden.APPROX_STEEPEST_CLAMPED),
            ("flattest", golden.APPROX_FLATTEST_CLAMPED),
        ],
        ids=["steepest", "flattest"],
    )
    def test_clamped_stdout_has_no_meta_lines(self, capsys, inputs, kind, expected):
        code, out, _ = run(
            capsys, "approx", inputs["p.json"], "--delta", "1.5", "--kind", kind
        )
        assert out == expected
        assert code == 0

    @pytest.mark.parametrize(
        "delta, kind, expected",
        [
            ("1.5", "steepest", golden.APPROX_STEEPEST_CLAMPED_JSON),
            ("0.4", "flattest", golden.APPROX_FLATTEST_JSON),
        ],
        ids=["steepest_clamped", "flattest"],
    )
    def test_out_json_bytes(self, capsys, inputs, tmp_path, delta, kind, expected):
        out_json = tmp_path / "r.json"
        code, _, _ = run(
            capsys,
            "approx",
            inputs["p.json"],
            "--delta",
            delta,
            "--kind",
            kind,
            "--out",
            str(out_json),
        )
        assert code == 0
        assert out_json.read_text() == expected

    def test_delta_out_of_range(self, capsys, inputs):
        code, _, err = run(
            capsys, "approx", inputs["p.json"], "--delta", "3", "--kind", "steepest"
        )
        assert code == 2
        assert err.startswith("error:")


class TestDistance:
    def test_incomparable_pair(self, capsys, inputs):
        code, out, _ = run(capsys, "distance", inputs["a.csv"], inputs["b.csv"])
        assert out == golden.DISTANCE_A_B
        assert code == 0

    def test_already_ordered(self, capsys, inputs):
        code, out, _ = run(capsys, "distance", inputs["p.json"], inputs["q.json"])
        assert out == golden.DISTANCE_P_Q
        assert code == 0


class TestSmooth:
    def test_shannon_max_with_verification(self, capsys, inputs, monkeypatch):
        monkeypatch.setenv("MAJORIZE_SEED", "0")
        code, out, _ = run(
            capsys,
            "smooth",
            inputs["p.json"],
            "--function",
            "shannon",
            "--mode",
            "max",
            "--delta",
            "0.4",
            "--verify",
            "50",
        )
        assert out == golden.SMOOTH_SHANNON_MAX
        assert code == 0

    def test_min_entropy_min(self, capsys, inputs):
        code, out, _ = run(
            capsys,
            "smooth",
            inputs["p.json"],
            "--function",
            "renyi:inf",
            "--mode",
            "min",
            "--delta",
            "0.4",
        )
        assert out == golden.SMOOTH_RENYI_INF_MIN
        assert code == 0

    def test_base_e_changes_units(self, capsys, inputs):
        _, out2, _ = run(
            capsys, "smooth", inputs["p.json"],
            "--function", "shannon", "--mode", "max", "--delta", "0.4",
        )
        _, oute, _ = run(
            capsys, "--base", "e", "smooth", inputs["p.json"],
            "--function", "shannon", "--mode", "max", "--delta", "0.4",
        )
        bits = float(out2.splitlines()[-1].split(": ")[1])
        nats = float(oute.splitlines()[-1].split(": ")[1])
        assert nats == pytest.approx(bits * math.log(2), abs=1e-9)

    def test_unknown_function(self, capsys, inputs):
        code, _, err = run(
            capsys, "smooth", inputs["p.json"],
            "--function", "gini", "--mode", "max", "--delta", "0.4",
        )
        assert code == 2
        assert "error:" in err


class TestLorenz:
    def test_plain_curve_to_stdout(self, capsys, inputs):
        code, out, _ = run(capsys, "lorenz", inputs["p.json"])
        assert out == golden.LORENZ_PLAIN
        assert code == 0

    def test_table_with_delta(self, capsys, inputs):
        code, out, _ = run(capsys, "lorenz", inputs["p.json"], "--delta", "0.4")
        assert out == golden.LORENZ_TABLE
        assert code == 0

    def test_out_file(self, capsys, inputs, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "lorenz", inputs["p.json"], "--delta", "0.4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == golden.LORENZ_TABLE


class TestRepeatability:
    def test_identical_invocations_produce_identical_output(self, capsys, inputs):
        commands = [
            ("check", inputs["p.json"], inputs["q.json"]),
            ("approx", inputs["p.json"], "--delta", "0.4", "--kind", "flattest"),
            ("distance", inputs["a.csv"], inputs["b.csv"]),
            ("lorenz", inputs["p.json"], "--delta", "0.4"),
        ]
        for argv in commands:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second


class TestErrorPaths:
    def test_unnormalized_input_rejected_by_default(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0.5\n0.6\n")
        code, _, err = run(capsys, "lorenz", str(f))
        assert code == 2
        assert "error:" in err

    def test_renormalize_policy_accepts_it(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("2\n1\n1\n")
        code, out, _ = run(capsys, "--input-policy", "renormalize", "lorenz", str(f))
        assert code == 0
        assert out == "l,cumulative\n0,0\n1,0.5\n2,0.75\n3,1\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/p.json", "/nonexistent/q.json")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("entry", ["1" * 400, "1e400"], ids=["int_400_digits", "1e400"])
    def test_overflowing_entry_is_exit_2(self, capsys, tmp_path, entry):
        f = tmp_path / "p.json"
        f.write_text(f'{{"values": [{entry}, 1]}}')
        code, _, err = run(capsys, "check", str(f), str(f))
        assert code == 2
        assert err == "error: entries must be finite\n"

    def test_overflowing_sum_prints_only_the_error(self, tmp_path):
        # a child process, so a numpy warning would reach the real stderr
        f = tmp_path / "big.json"
        f.write_text('{"values": [1e308, 1e308]}')
        proc = subprocess.run(
            [sys.executable, "-m", "majorize", "--input-policy", "renormalize", "lorenz", str(f)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: sum inf overflows\n"

    @pytest.mark.parametrize("flag", ["--tau", "--tau-norm"])
    def test_infinite_tolerance_is_exit_2(self, capsys, tmp_path, flag):
        # tau_norm = inf would clamp the -5 entry away as float noise, and
        # tau = inf would let every input majorize every other
        n = tmp_path / "n.json"
        n.write_text('{"values": [-5, 1, 0]}')
        q = tmp_path / "q.json"
        q.write_text('{"values": [0.5, 0.5]}')
        code, out, err = run(capsys, flag, "inf", "check", str(n), str(q))
        assert code == 2
        assert out == ""
        assert err == "error: tolerances must be positive and finite\n"

    @pytest.mark.parametrize(
        ("knobs", "message"),
        [
            ({"tau": 1e-6, "tau_norm": 1e-7}, "tau must not exceed tau_norm"),
            ({"input_policy": "x"}, "unknown input policy"),
        ],
    )
    def test_config_rejects_inconsistent_knobs(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            Config(**knobs)

    def test_unsupported_extension(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.5\n")
        code, _, _ = run(capsys, "lorenz", str(f))
        assert code == 2

    def test_usage_error_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "approx")  # missing required arguments
        assert code == 2
        code, _, _ = run(capsys)  # missing subcommand
        assert code == 2

    def test_help_is_exit_0(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


def test_main_entry_raises_system_exit(monkeypatch, tmp_path, capsys):
    paths = golden.write_inputs(tmp_path)
    monkeypatch.setattr(
        "sys.argv", ["majorize", "check", paths["p.json"], paths["q.json"]]
    )
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 0
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("majorize") is None, reason="entry point not on PATH")
def test_console_script(tmp_path):
    paths = golden.write_inputs(tmp_path)
    proc = subprocess.run(
        ["majorize", "approx", paths["p.json"], "--delta", "0.4", "--kind", "steepest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden.APPROX_STEEPEST


def test_smooth_verify_gap_is_machine_zero(capsys, tmp_path, monkeypatch):
    # the oracle includes the exact extremal point, so verify never
    # depends on the sample seed
    paths = golden.write_inputs(tmp_path)
    for seed in ("0", "123", "999983"):
        monkeypatch.setenv("MAJORIZE_SEED", seed)
        code, out, _ = run(
            capsys, "smooth", paths["p.json"],
            "--function", "sum_powers:2", "--mode", "min",
            "--delta", "0.4", "--verify", "20",
        )
        assert code == 0
        assert "gap: 0\n" in out
        assert "verify: PASS" in out


def test_smooth_verify_reads_seed_from_environment(capsys, tmp_path, monkeypatch):
    paths = golden.write_inputs(tmp_path)
    monkeypatch.setenv("MAJORIZE_SEED", "not-an-int")
    code, _, err = run(
        capsys, "smooth", paths["p.json"],
        "--function", "shannon", "--mode", "max",
        "--delta", "0.4", "--verify", "5",
    )
    assert code == 2
    assert "error:" in err
