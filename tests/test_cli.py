"""Tests of the command-line front end and its exit codes, mostly in process."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from packdiag.cli import main
from packdiag.fusion import DetectorParams
from packdiag.io import (
    read_dataset,
    read_params,
    write_dataset,
    write_params,
    write_scenario,
)
from packdiag.pack import FaultSpec, SimConfig, simulate
from packdiag.pipeline import Telemetry
from packdiag.tuning import FitnessEvaluator


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared directory with a normal dataset, a fault dataset, and params."""
    root = tmp_path_factory.mktemp("cli")
    normal = Telemetry.from_frames(simulate(SimConfig(duration=260.0,
                                                      rng_seed=9)))
    write_dataset(root / "normal.csv", normal)
    fault_cfg = SimConfig(duration=260.0, rng_seed=10,
                          fault=FaultSpec(fault_cell=11, r_short=10.0,
                                          onset=150.0))
    write_dataset(root / "fault.csv", Telemetry.from_frames(simulate(fault_cfg)))
    write_params(root / "short.params", DetectorParams(train_len=60))
    write_params(root / "mid.params", DetectorParams(train_len=120))
    return root


def test_module_entry_point_runs():
    # `python -m packdiag` works from a checkout without an installed script
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "packdiag", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "benchmark" in done.stdout


class TestSimulateCommand:
    def test_writes_dataset_and_reports_split(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.scenario"
        write_scenario(cfg_path, SimConfig(duration=40.0, rng_seed=3,
                                           fault=FaultSpec(fault_cell=7,
                                                           r_short=10.0,
                                                           onset=25.0)))
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        tele = read_dataset(out)
        assert tele.n_frames == 40
        assert int((tele.labels == 1).sum()) == 15
        printed = capsys.readouterr().out
        assert "40 frames: 25 normal, 15 abnormal" in printed

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "run.scenario"
        write_scenario(cfg_path, SimConfig(duration=30.0, rng_seed=3))
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["simulate", str(cfg_path), "--out", str(a)]) == 0
        assert main(["simulate", str(cfg_path), "--out", str(b)]) == 0
        assert main(["simulate", str(cfg_path), "--out", str(c),
                     "--seed", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg_a, cfg_b = tmp_path / "a.scenario", tmp_path / "b.scenario"
        write_scenario(cfg_a, SimConfig(duration=30.0, rng_seed=3))
        write_scenario(cfg_b, SimConfig(duration=30.0, rng_seed=99))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(cfg_a), "--out", str(a),
                     "--seed", "42"]) == 0
        assert main(["simulate", str(cfg_b), "--out", str(b),
                     "--seed", "42"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_depleted_run_reports_its_stop(self, tmp_path, capsys):
        # at 16 C a cell runs dry at 810 s: the frames up to then are
        # written and the early stop is said on stderr
        cfg_path = tmp_path / "dry.scenario"
        write_scenario(cfg_path, SimConfig(duration=900.0, rng_seed=3,
                                           discharge_rate=16.0))
        out = tmp_path / "dry.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        assert read_dataset(out).n_frames == 810
        captured = capsys.readouterr()
        assert "810 frames: 810 normal, 0 abnormal" in captured.out
        assert "stopped at 810 s, 810 of 900 frames" in captured.err

    def test_run_empty_before_first_frame_is_simulation_failure(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "empty.scenario"
        cfg_path.write_text("initial_soc = 0.00001\n")
        assert main(["simulate", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert ("a cell ran out of charge at t = 0.5 s, before the first "
                "frame") in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["onset = nan", "r_short = inf",
                                      "duration = inf", "dt = nan"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, line):
        # each ran, mislabelled or crashed before finite values were required
        key = line.split()[0]
        lines = {"duration": "duration = 50.0", "fault_cell": "fault_cell = 4",
                 "r_short": "r_short = 10.0", "onset": "onset = 10.0",
                 key: line}
        cfg_path = tmp_path / "bad.scenario"
        cfg_path.write_text("\n".join(lines.values()) + "\n")
        assert main(["simulate", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_scenario_not_utf8_names_line_and_exits_2(self, tmp_path, capsys):
        # the decoder's own message used to reach the console, with no line
        cfg_path = tmp_path / "latin.scenario"
        cfg_path.write_bytes(b"duration = 50.0\nrng_seed = \xff3\n")
        assert main(["simulate", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert ("error: scenario line 2: not UTF-8 text (invalid start byte)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("duration, interval", [
        ("2000.0", "1e-310"), ("1.7976931348623157e308", "1.0"),
        ("2000.0", "1e-06")])
    def test_overflowing_frame_count_is_config_error(self, tmp_path, capsys,
                                                     duration, interval):
        # the frame count overflows: duration / sample_interval is infinite,
        # or finite but overflows with the 1e-9 allowance n_frames adds; or
        # it is finite but past MAX_FRAMES (2,000,000,002 frames); a bad
        # config exits 2, not with a traceback
        cfg_path = tmp_path / "tiny.scenario"
        cfg_path.write_text(f"duration = {duration}\n"
                            f"sample_interval = {interval}\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
        assert f"sample_interval {interval} makes" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_substeps_is_config_error(self, tmp_path, capsys):
        # one frame of 2,000,000,000 substeps, whose heats alone would take
        # 384 GB: rejected before anything is simulated
        cfg_path = tmp_path / "long.scenario"
        cfg_path.write_text("duration = 1e9\nsample_interval = 1e9\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sample_interval 1000000000.0 at dt 0.5" in err
        assert "MAX_SUBSTEPS" in err
        assert not out.exists()

    def test_overflowing_short_is_config_error(self, tmp_path, capsys):
        # 1 / 1e-320 overflows, so the faulted group's conductance is not
        # finite: refused when the file is read, not at the onset
        cfg_path = tmp_path / "hard.scenario"
        cfg_path.write_text("duration = 50.0\nfault_cell = 4\n"
                            "r_short = 1e-320\nonset = 10.0\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 2
        assert "r_short 1e-320" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, where):
        # numpy's own message named neither the key nor the value
        cfg_path = tmp_path / "run.scenario"
        cfg_path.write_text("duration = 20.0\n"
                            + ("rng_seed = -1\n" if where == "file" else ""))
        flag = ["--seed", "-1"] if where == "flag" else []
        out = tmp_path / "x.csv"
        assert main(["simulate", str(cfg_path), "--out", str(out)] + flag) == 2
        assert ("rng_seed must be non-negative, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_duration_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.scenario"
        cfg_path.write_text("duration = 0.0\n")
        assert main(["simulate", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err != ""

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.scenario"
        cfg_path.write_text("duration = 40.0\nwhoosh = 1\n")
        assert main(["simulate", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "whoosh" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.scenario"),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestFitCommand:
    def test_defaults_without_optimization(self, work, tmp_path):
        out = tmp_path / "fit.params"
        assert main(["fit", "--normal", str(work / "normal.csv"),
                     "--train-len", "60", "--out", str(out)]) == 0
        params = read_params(out)
        assert params.window == 27
        assert params.alpha == (0.216, 0.573, 0.211)
        assert params.beta == 0.99
        assert None not in (params.max_hd, params.max_hs, params.max_ht)
        assert params.h_r is not None and params.h_r > 0

    def test_beta_passthrough(self, work, tmp_path):
        out = tmp_path / "fit.params"
        assert main(["fit", "--normal", str(work / "normal.csv"),
                     "--train-len", "60", "--beta", "0.95",
                     "--out", str(out)]) == 0
        assert read_params(out).beta == 0.95

    def test_optimize_without_fault_data_is_config_error(self, work, tmp_path,
                                                         capsys):
        ret = main(["fit", "--normal", str(work / "normal.csv"),
                    "--train-len", "60", "--optimize",
                    "--out", str(tmp_path / "x.params")])
        assert ret == 2
        assert "fault" in capsys.readouterr().err

    def test_fault_data_without_optimize_is_config_error(self, work, tmp_path,
                                                         capsys):
        # without --optimize nothing would read the fault datasets
        out = tmp_path / "p.params"
        assert main(["fit", "--normal", str(work / "normal.csv"),
                     "--fault", str(work / "fault.csv"),
                     "--train-len", "60", "--out", str(out)]) == 2
        assert "--optimize" in capsys.readouterr().err
        assert not out.exists()

    def test_optimize_is_deterministic_per_seed(self, work, tmp_path):
        args = ["fit", "--normal", str(work / "normal.csv"),
                "--fault", str(work / "fault.csv"),
                "--train-len", "60", "--optimize", "--seed", "7",
                "--population", "6", "--generations", "2"]
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        fitted = read_params(a)
        assert None not in (fitted.max_hd, fitted.max_hs, fitted.max_ht,
                            fitted.h_r)
        assert abs(sum(fitted.alpha) - 1.0) <= 1e-9


    @pytest.mark.parametrize("flag, value, message", [
        ("--beta", "1.5", "beta must lie strictly between 0 and 1"),
        ("--train-len", "0", "train_len must be positive, got 0"),
        ("--seed", "-1", "rng_seed must be non-negative, got -1")],
        ids=["beta", "train_len", "seed"])
    def test_optimize_rejects_bad_value_before_the_search(
            self, work, tmp_path, capsys, monkeypatch, flag, value, message):
        # each used to be found only after every candidate had been scored
        scored = []
        evaluate = FitnessEvaluator.evaluate
        evaluate_many = FitnessEvaluator.evaluate_many

        def spy(self, window, alpha):
            scored.append((window, alpha))
            return evaluate(self, window, alpha)

        def batch_spy(self, window, alphas):
            scored.extend((window, alpha) for alpha in alphas)
            return evaluate_many(self, window, alphas)

        monkeypatch.setattr(FitnessEvaluator, "evaluate", spy)
        monkeypatch.setattr(FitnessEvaluator, "evaluate_many", batch_spy)
        # the last of a repeated flag wins
        argv = ["fit", "--normal", str(work / "normal.csv"),
                "--fault", str(work / "fault.csv"), "--optimize",
                "--train-len", "60", "--seed", "3", flag, value,
                "--population", "6", "--generations", "2",
                "--out", str(tmp_path / "x.params")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert main(argv) == 2
        assert scored == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.params").exists()


class TestDetectCommand:
    def test_trace_layout_and_warmup_rows(self, work, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["detect", str(work / "normal.csv"),
                     "--params", str(work / "short.params"),
                     "--out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,h_d,h_s,h_t,H,H_r,alarm"
        assert len(lines) == 261
        first = lines[1].split(",")
        assert first[1:5] == ["", "", "", ""]       # warm-up: empty entropies
        assert first[6] == "0"                      # warm-up: no alarm
        filled = lines[27].split(",")               # first full-window row
        assert all(field != "" for field in filled)
        assert len({row.split(",")[5] for row in lines[1:]}) == 1  # constant H_r
        assert "t_f=" in capsys.readouterr().out

    def test_normal_alarm_rate_low(self, work, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["detect", str(work / "normal.csv"),
                     "--params", str(work / "mid.params"),
                     "--out", str(trace)]) == 0
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        usable = [r for r in rows if r[1] != ""]
        alarms = sum(int(r[6]) for r in usable)
        assert alarms / len(usable) <= 0.02

    def test_fault_trace_detects_after_onset(self, work, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["detect", str(work / "fault.csv"),
                     "--params", str(work / "short.params"),
                     "--out", str(trace)]) == 0
        printed = capsys.readouterr().out
        t_f = [tok for tok in printed.split() if tok.startswith("t_f=")][0]
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        post = [r for r in rows if r[1] != "" and float(r[0]) > 150.0
                and r[6] == "1"]
        assert post, "no alarm after the fault onset"
        assert float(post[0][0]) > 150.0
        assert t_f != "t_f=none"

    def test_params_not_utf8_names_line_and_exits_2(self, work, tmp_path,
                                                    capsys):
        # the decoder's own message used to reach the console, with no line
        params = tmp_path / "latin.params"
        params.write_bytes(b"window = 27\ntrain_len = \xff60\n")
        assert main(["detect", str(work / "normal.csv"), "--params",
                     str(params), "--out", str(tmp_path / "t.csv")]) == 2
        assert ("error: params line 2: not UTF-8 text (invalid start byte)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_params_with_cr_newlines_read(self, work, tmp_path, newline):
        params = tmp_path / "cr.params"
        params.write_bytes(newline.join([b"window = 27", b"train_len = 60",
                                         b""]))
        assert read_params(params) == DetectorParams(train_len=60)
        assert main(["detect", str(work / "normal.csv"), "--params",
                     str(params), "--out", str(tmp_path / "t.csv")]) == 0

    def test_no_refit_uses_stored_calibration(self, work, tmp_path):
        fitted = tmp_path / "fitted.params"
        assert main(["fit", "--normal", str(work / "normal.csv"),
                     "--train-len", "60", "--out", str(fitted)]) == 0
        stored = read_params(fitted)
        trace = tmp_path / "trace.csv"
        assert main(["detect", str(work / "normal.csv"),
                     "--params", str(fitted), "--out", str(trace),
                     "--no-refit"]) == 0
        h_r_field = trace.read_text().splitlines()[1].split(",")[5]
        assert float(h_r_field) == pytest.approx(stored.h_r, abs=1e-9)

    def test_no_refit_requires_calibrated_params(self, work, tmp_path):
        ret = main(["detect", str(work / "normal.csv"),
                    "--params", str(work / "short.params"),
                    "--out", str(tmp_path / "t.csv"), "--no-refit"])
        assert ret == 2

    def test_no_refit_rejects_nan_normalizer(self, work, tmp_path, capsys):
        # with max_hd = nan every H is NaN, so detect would report no alarm
        fitted = tmp_path / "fitted.params"
        assert main(["fit", "--normal", str(work / "normal.csv"),
                     "--train-len", "60", "--out", str(fitted)]) == 0
        lines = [("max_hd = nan" if line.startswith("max_hd") else line)
                 for line in fitted.read_text().splitlines()]
        fitted.write_text("\n".join(lines) + "\n")
        ret = main(["detect", str(work / "fault.csv"),
                    "--params", str(fitted),
                    "--out", str(tmp_path / "t.csv"), "--no-refit"])
        assert ret == 2
        assert "max_hd must be finite" in capsys.readouterr().err

    def test_no_refit_rejects_nan_weight(self, work, tmp_path, capsys):
        # with alpha1 = nan every H is NaN, so detect would report no alarm
        fitted = tmp_path / "fitted.params"
        assert main(["fit", "--normal", str(work / "normal.csv"),
                     "--train-len", "60", "--out", str(fitted)]) == 0
        lines = [("alpha1 = nan" if line.startswith("alpha1") else line)
                 for line in fitted.read_text().splitlines()]
        fitted.write_text("\n".join(lines) + "\n")
        ret = main(["detect", str(work / "fault.csv"),
                    "--params", str(fitted),
                    "--out", str(tmp_path / "t.csv"), "--no-refit"])
        assert ret == 2
        assert "alpha entries must lie in [0, 1]" in capsys.readouterr().err

    def test_malformed_row_names_line_and_exits_4(self, work, tmp_path,
                                                  capsys):
        broken = tmp_path / "broken.csv"
        lines = (work / "normal.csv").read_text().splitlines()
        lines[4] = lines[4] + ",0.5"
        broken.write_text("\n".join(lines) + "\n")
        ret = main(["detect", str(broken),
                    "--params", str(work / "short.params"),
                    "--out", str(tmp_path / "t.csv")])
        assert ret == 4
        assert "line 5" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [4, 27], ids=["temperature", "voltage"])
    def test_nan_reading_names_line_and_exits_4(self, work, tmp_path, capsys,
                                                column):
        # a NaN cell temperature used to end in a config error (exit 2), a
        # NaN group voltage in a clean exit with 27 unscorable frames
        broken = tmp_path / "nan.csv"
        lines = (work / "normal.csv").read_text().splitlines()
        parts = lines[100].split(",")
        parts[column] = "nan"
        lines[100] = ",".join(parts)
        broken.write_text("\n".join(lines) + "\n")
        ret = main(["detect", str(broken),
                    "--params", str(work / "short.params"),
                    "--out", str(tmp_path / "t.csv")])
        assert ret == 4
        assert "line 101: non-finite" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["detect", "localize"])
    def test_time_going_back_names_line_and_exits_4(self, work, tmp_path,
                                                    capsys, command):
        # t = 200 on line 101 used to pass, and localize --tf 200 then scored
        # the window ending at line 101 instead of line 201
        broken = tmp_path / "stalled.csv"
        lines = (work / "fault.csv").read_text().splitlines()
        parts = lines[100].split(",")
        parts[0] = "200"
        lines[100] = ",".join(parts)
        broken.write_text("\n".join(lines) + "\n")
        extra = ["--tf", "200"] if command == "localize" else []
        ret = main([command, str(broken),
                    "--params", str(work / "short.params"),
                    "--out", str(tmp_path / "t.csv"), *extra])
        assert ret == 4
        assert "line 102: time" in capsys.readouterr().err

    def test_dropped_frame_names_line_and_exits_4(self, work, tmp_path,
                                                  capsys):
        # one frame missing used to be scored as if the sampling were even
        broken = tmp_path / "gap.csv"
        lines = (work / "fault.csv").read_text().splitlines()
        del lines[100]
        broken.write_text("\n".join(lines) + "\n")
        ret = main(["detect", str(broken),
                    "--params", str(work / "short.params"),
                    "--out", str(tmp_path / "t.csv")])
        assert ret == 4
        assert "line 101: sample interval" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "localize", "fit"])
    def test_bytes_not_utf8_name_line_and_exit_4(self, work, tmp_path, capsys,
                                                 command):
        # bytes that are not UTF-8 used to end in a config error (exit 2)
        broken = tmp_path / "latin.csv"
        data = (work / "fault.csv").read_bytes()
        broken.write_bytes(data[:500] + b"\xff\xfe" + data[502:])
        lineno = data.count(b"\n", 0, 500) + 1
        assert lineno > 1
        params = ["--params", str(work / "short.params")]
        args = {"detect": [str(broken), *params],
                "localize": [str(broken), *params, "--tf", "180"],
                "fit": ["--normal", str(broken), "--train-len", "60"]}[command]
        ret = main([command, *args, "--out", str(tmp_path / "out")])
        assert ret == 4
        assert f"line {lineno}: not UTF-8 text" in capsys.readouterr().err


class TestLocalizeCommand:
    def test_prints_serial_and_writes_contributions(self, work, tmp_path,
                                                    capsys):
        contrib = tmp_path / "contrib.csv"
        assert main(["localize", str(work / "fault.csv"),
                     "--params", str(work / "short.params"),
                     "--tf", "180", "--out", str(contrib)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0] == "#11"
        lines = contrib.read_text().splitlines()
        assert lines[0] == "cell,serial,x,y,C"
        assert len(lines) == 25
        values = [float(line.split(",")[4]) for line in lines[1:]]
        assert int(np.argmax(values)) + 1 == 11

    def test_early_alarm_instant_is_config_error(self, work, tmp_path):
        ret = main(["localize", str(work / "fault.csv"),
                    "--params", str(work / "short.params"),
                    "--tf", "5", "--out", str(tmp_path / "c.csv")])
        assert ret == 2

    def test_off_grid_instant_is_config_error(self, work, tmp_path):
        ret = main(["localize", str(work / "fault.csv"),
                    "--params", str(work / "short.params"),
                    "--tf", "180.25", "--out", str(tmp_path / "c.csv")])
        assert ret == 2

    def test_repeat_runs_identical(self, work, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["localize", str(work / "fault.csv"),
                         "--params", str(work / "short.params"),
                         "--tf", "180", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scen")
    for idx, cell in ((1, 11), (2, 4)):
        write_scenario(root / f"sc{idx:02d}.scenario",
                       SimConfig(duration=160.0, rng_seed=30 + idx,
                                 fault=FaultSpec(fault_cell=cell,
                                                 r_short=10.0,
                                                 onset=90.0)))
    return root


class TestBenchmarkCommand:
    def test_report_shape_and_exit_code(self, work, scenario_dir, tmp_path,
                                        capsys):
        report = tmp_path / "report.csv"
        ret = main(["benchmark", str(scenario_dir),
                    "--params", str(work / "short.params"),
                    "--out", str(report)])
        assert ret in (0, 5)
        lines = report.read_text().splitlines()
        header = "scenario,add_s,adr_pct,far_pct,estimated_cell,true_cell,match,status"
        assert lines[0] == header
        rows = [line for line in lines[1:] if line and not line.startswith("#")]
        assert len(rows) == 2
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 8
            assert fields[5] in ("11", "4")
            assert fields[6] in ("yes", "no")
            assert fields[7] in ("ok", "FAILED")
            if fields[6] == "yes":
                assert fields[4] == fields[5]
        # two tiny scenarios cannot clear the nine-scenario thresholds
        assert ret == 5
        assert "target" in capsys.readouterr().out

    def test_deterministic_report(self, work, scenario_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["benchmark", str(scenario_dir),
                  "--params", str(work / "short.params"),
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_failed_row_says_why(self, work, tmp_path, capsys):
        # the cells run dry before the onset, so the recording has no
        # abnormal frame to score
        root = tmp_path / "dry"
        root.mkdir()
        write_scenario(root / "sc01.scenario",
                       SimConfig(duration=2000.0, discharge_rate=16.0,
                                 fault=FaultSpec(fault_cell=4, r_short=10.0,
                                                 onset=1000.0)))
        report = tmp_path / "report.csv"
        assert main(["benchmark", str(root), "--out", str(report)]) == 5
        assert report.read_text().splitlines()[1] == "sc01,,,,,4,no,FAILED"
        err = capsys.readouterr().err
        assert "sc01 FAILED: unusable scenario labeling" in err

    def test_failed_row_names_an_empty_run(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        write_scenario(root / "sc01.scenario",
                       SimConfig(duration=100.0, initial_soc=0.00001,
                                 fault=FaultSpec(fault_cell=4, r_short=10.0,
                                                 onset=50.0)))
        report = tmp_path / "report.csv"
        assert main(["benchmark", str(root), "--out", str(report)]) == 5
        assert report.read_text().splitlines()[1] == "sc01,,,,,4,no,FAILED"
        assert ("sc01 FAILED: a cell ran out of charge at t = 0.5 s, before "
                "the first frame") in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, scenario_dir, tmp_path,
                                           capsys):
        # it used to be a FAILED row per scenario and exit 5
        report = tmp_path / "report.csv"
        assert main(["benchmark", str(scenario_dir), "--out", str(report),
                     "--seed", "-1"]) == 2
        assert ("rng_seed must be non-negative, got -1"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_missing_directory_is_config_error(self, work, tmp_path):
        ret = main(["benchmark", str(tmp_path / "nowhere"),
                    "--params", str(work / "short.params"),
                    "--out", str(tmp_path / "r.csv")])
        assert ret == 2
