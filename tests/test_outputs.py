"""scripts/outputs.py writes and digests the outputs a refactor must leave
unchanged, says how two output sets differ, and gates on it."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import outputs
from packdiag.cli import main
from packdiag.io import read_scenario
from workloads import optimizer_test_configs

TRACE = ("t,h_d,h_s,h_t,H,H_r,alarm\n"
         "1,,,,,0.5,0\n"
         "2,0.1,0.2,0.3,0.4,0.5,0\n"
         "3,0.1,0.2,0.3,0.6,0.5,1\n")


def test_same_bytes_are_identical():
    assert outputs.compare("sc01.w27.trace.csv", b"a\n", b"a\n") \
        == "identical"


def test_trace_names_lines_flips_t_f_and_columns():
    new = TRACE.replace("0.4,0.5,0", "0.5,0.5,1").replace("0.3,0.6", "0.33,0.6")
    assert outputs.compare_trace(TRACE, new) == (
        "2 of 3 lines changed, 1 alarm flips, t_f MOVED 3 -> 2; "
        "largest relative change: H 2.5e-01, h_t 1.0e-01")
    warm = TRACE.replace("1,,,,,0.5,0", "1,0.1,0.2,0.3,0.4,0.5,0")
    assert outputs.compare_trace(TRACE, warm) == (
        "1 of 3 lines changed, 0 alarm flips, t_f 3; largest relative "
        "change: h_d inf, h_s inf, h_t inf, H inf")
    assert outputs.compare_trace(TRACE, TRACE + "4,,,,,0.5,0\n") \
        .startswith("shape differs: 4 -> 5 lines")


def test_params_and_other_files():
    assert outputs.compare(
        "tune.params", b"window = 27\nbeta = 0.99\n",
        b"window = 30\nbeta = 0.99\n") == "keys changed: window 27 -> 30"
    assert outputs.compare("sc01.csv", b"a\nb\nc\n", b"a\nB\n") \
        == "2 lines changed"


def _checkout(path: Path) -> Path:
    package = path / "src" / "packdiag"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    return path


def test_exit_status_gates_on_any_difference(tmp_path, monkeypatch, capsys):
    sets = {"old": {"a.csv": "1\n", "b.csv": "2\n"},
            "new": {"a.csv": "1\n", "b.csv": "3\n"}}
    for side in sets:
        _checkout(tmp_path / side)

    def produce(checkout, out):
        for name, text in sets[checkout.name].items():
            (out / name).write_text(text)
        return list(out.iterdir())

    monkeypatch.setattr(outputs, "produce", produce)
    argv = ["compare", str(tmp_path / "old"), str(tmp_path / "new")]
    assert outputs.main(argv) == 1
    assert capsys.readouterr().out == "a.csv: identical\nb.csv: 1 lines changed\n"
    sets["new"]["b.csv"] = "2\n"
    assert outputs.main(argv) == 0
    assert capsys.readouterr().out == "a.csv: identical\nb.csv: identical\n"


@pytest.mark.parametrize("args, message", [
    (("digests", "a", "b"), "unrecognized arguments: "),
    (("digests", "none"), "argument CHECKOUT: no packdiag sources under "),
])
def test_bad_arguments_exit_2(args, message, tmp_path, capsys):
    # checkout a holds packdiag; b and none do not exist
    _checkout(tmp_path / "a")
    argv = [args[0], *(str(tmp_path / arg) for arg in args[1:])]
    with pytest.raises(SystemExit) as failed:
        outputs.main(argv)
    assert failed.value.code == 2
    assert message in capsys.readouterr().err


def test_run_exits_with_the_failed_commands_stderr(tmp_path):
    missing = tmp_path / "none.scenario"
    with pytest.raises(SystemExit) as failed:
        outputs.run(main, "simulate", str(missing),
                    "--out", str(tmp_path / "none.csv"))
    assert failed.value.code.startswith(f"packdiag simulate {missing} --out ")
    assert failed.value.code.endswith(
        f"exited 2: error: [Errno 2] No such file or directory: '{missing}'")


def test_first_alarm_is_the_first_alarmed_rows_time():
    assert outputs.first_alarm(TRACE) == "3"
    assert outputs.first_alarm(TRACE.replace(",1\n", ",0\n")) is None


def test_tune_scenarios_are_the_tune_workloads_recordings(tmp_path):
    written = outputs.tune_scenarios(tmp_path)
    assert {name: read_scenario(path) for name, path in written.items()} \
        == optimizer_test_configs(1200.0)


def test_digests_measures_the_checkout_it_is_given(tmp_path):
    # the script loads its own packdiag before it measures the stub's
    stub = _checkout(tmp_path / "stub")
    (stub / "src" / "packdiag" / "cli.py").write_text(
        "def main(argv):\n"
        "    open(argv[argv.index('--out') + 1], 'w').write('stub\\n')\n"
        "    return 0\n")
    (stub / "scenarios").mkdir()
    (stub / "scenarios" / "a.scenario").write_text("not a scenario\n")
    done = subprocess.run([sys.executable, outputs.__file__, "digests",
                           str(stub)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(b"stub\n").hexdigest()
    names = ["a.csv", "a.norefit.trace.csv", "a.w200.trace.csv",
             "a.w27.trace.csv", "depleted.csv", "fit.params", "report.csv",
             "tune.params"]
    assert done.stdout == "".join(f"{digest}  {name}\n" for name in names)
