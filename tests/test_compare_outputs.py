"""scripts/compare_outputs.py says how two output sets differ, and gates on
it; the output_digests helpers it shares run commands and find alarms."""

import importlib.util
import sys
from pathlib import Path

import pytest

from packdiag.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    # compare_outputs imports its sibling output_digests by plain name
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location(name,
                                                      SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


compare_outputs = _load("compare_outputs")
output_digests = _load("output_digests")

TRACE = ("t,h_d,h_s,h_t,H,H_r,alarm\n"
         "1,,,,,0.5,0\n"
         "2,0.1,0.2,0.3,0.4,0.5,0\n"
         "3,0.1,0.2,0.3,0.6,0.5,1\n")


def test_same_bytes_are_identical():
    assert compare_outputs.compare("sc01.w27.trace.csv", b"a\n", b"a\n") \
        == "identical"


def test_trace_names_lines_flips_t_f_and_columns():
    new = TRACE.replace("0.4,0.5,0", "0.5,0.5,1").replace("0.3,0.6", "0.33,0.6")
    assert compare_outputs.compare_trace(TRACE, new) == (
        "2 of 3 lines changed, 1 alarm flips, t_f MOVED 3 -> 2; "
        "largest relative change: H 2.5e-01, h_t 1.0e-01")
    warm = TRACE.replace("1,,,,,0.5,0", "1,0.1,0.2,0.3,0.4,0.5,0")
    assert compare_outputs.compare_trace(TRACE, warm) == (
        "1 of 3 lines changed, 0 alarm flips, t_f 3; largest relative "
        "change: h_d inf, h_s inf, h_t inf, H inf")
    assert compare_outputs.compare_trace(TRACE, TRACE + "4,,,,,0.5,0\n") \
        .startswith("shape differs: 4 -> 5 lines")


def test_params_and_other_files():
    assert compare_outputs.compare(
        "tune.params", b"window = 27\nbeta = 0.99\n",
        b"window = 30\nbeta = 0.99\n") == "keys changed: window 27 -> 30"
    assert compare_outputs.compare("sc01.csv", b"a\nb\nc\n", b"a\nB\n") \
        == "2 lines changed"


def test_exit_status_gates_on_any_difference(tmp_path, monkeypatch, capsys):
    outputs = {"old": {"a.csv": "1\n", "b.csv": "2\n"},
               "new": {"a.csv": "1\n", "b.csv": "3\n"}}
    for side in outputs:
        package = tmp_path / side / "src" / "packdiag"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")

    def produce(checkout, out):
        made = []
        for name, text in outputs[checkout.name].items():
            (out / name).write_text(text)
            made.append(out / name)
        return made

    monkeypatch.setattr(compare_outputs, "_produce_fresh", produce)
    argv = [str(tmp_path / "old"), str(tmp_path / "new")]
    assert compare_outputs.main(argv) == 1
    assert capsys.readouterr().out == "a.csv: identical\nb.csv: 1 lines changed\n"
    outputs["new"]["b.csv"] = "2\n"
    assert compare_outputs.main(argv) == 0
    assert capsys.readouterr().out == "a.csv: identical\nb.csv: identical\n"


def test_run_exits_with_the_failed_commands_stderr(tmp_path):
    missing = tmp_path / "none.scenario"
    with pytest.raises(SystemExit) as failed:
        output_digests.run(main, "simulate", str(missing),
                           "--out", str(tmp_path / "none.csv"))
    assert failed.value.code.startswith(f"packdiag simulate {missing} --out ")
    assert failed.value.code.endswith(
        f"exited 2: error: [Errno 2] No such file or directory: '{missing}'")


def test_first_alarm_is_the_first_alarmed_rows_time():
    assert output_digests.first_alarm(TRACE) == "3"
    assert output_digests.first_alarm(TRACE.replace(",1\n", ",0\n")) is None
