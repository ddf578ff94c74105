"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs each workload once at a tiny size and requires its checks to pass.
Then it feeds every check a perturbed value, one at a time, and requires
that check to fail with its own message. Exit code 0 when all of that
holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from packdiag import locate  # noqa: E402

from oracles import CheckFailed  # noqa: E402
from workloads import TINY, WORKLOADS, timer  # noqa: E402

SEED = 0


def _set(obj, attr, value):
    """Set an attribute; returns the call that puts the old value back."""
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    return lambda: setattr(obj, attr, old)


def _suite_row(wl, idx, **changes):
    rows = list(wl.rows)
    rows[idx] = dataclasses.replace(rows[idx], **changes)
    return _set(wl, "rows", rows)


def _rerun_names_other_cell():
    """Shifts the cell that localization names, in the check's re-run only."""
    contributions_at = locate.contributions_at

    def shifted(*args, **kwargs):
        cmap = contributions_at(*args, **kwargs)
        return dataclasses.replace(cmap, cell_serial=cmap.cell_serial % 24 + 1)

    return _set(locate, "contributions_at", shifted)


def suite_cases(wl):
    checked = SEED % len(wl.rows)
    row = wl.rows[checked]
    cell = wl.rows[0].true_cell
    return [
        ("failed row", "status",
         lambda: _suite_row(wl, 0, status="FAILED")),
        ("late detection", "detection delay",
         lambda: _suite_row(wl, 0, add_s=61.0)),
        ("wrong cell", "named cell",
         lambda: _suite_row(wl, 0, estimated_cell=cell % 24 + 1)),
        ("delay off by a frame", "re-run delay",
         lambda: _suite_row(wl, checked, add_s=row.add_s + 1.0)),
        ("re-run cell", "re-run names cell", _rerun_names_other_cell),
        # two scenarios cannot meet the count targets, so gating this
        # report as if it held every shipped scenario must fail
        ("bench targets", "bench targets missed",
         lambda: _set(wl, "all_shipped", True)),
    ]


def _detect_result(wl, report=None, cmap=None):
    key = next(iter(wl.results))
    old = wl.results[key]
    trace, tele, rep, cm = old
    wl.results[key] = (trace, tele, report or rep, cmap or cm)
    return lambda: wl.results.__setitem__(key, old)


def _streams(wl, name, fn):
    report = next(iter(wl.results.values()))[2]
    arr = getattr(report.streams, name).copy()
    fn(arr, report)
    streams = dataclasses.replace(report.streams, **{name: arr})
    return _detect_result(wl, dataclasses.replace(report, streams=streams))


def _train_peak(report) -> int:
    train = np.flatnonzero((report.streams.times <= report.params.train_len)
                           & ~np.isnan(report.streams.h_t))
    return int(train[np.argmax(report.streams.h_t[train])])


def _params(wl, **scale):
    report = next(iter(wl.results.values()))[2]
    changes = {k: getattr(report.params, k) * v for k, v in scale.items()}
    return _detect_result(wl, dataclasses.replace(
        report, params=dataclasses.replace(report.params, **changes)))


def _h_stream(wl, fn):
    report = next(iter(wl.results.values()))[2]
    h = report.h_stream.copy()
    fn(h, report)
    return _detect_result(wl, dataclasses.replace(report, h_stream=h))


def _outcome(wl, **changes):
    report = next(iter(wl.results.values()))[2]
    outcome = dataclasses.replace(report.outcome, **changes)
    return _detect_result(wl, dataclasses.replace(report, outcome=outcome))


def _flip_quiet_alarm(wl):
    report = next(iter(wl.results.values()))[2]
    alarms = report.outcome.alarms.copy()
    k = int(np.nanargmin(report.h_stream))
    alarms[k] = True
    return _outcome(wl, alarms=alarms)


def _trace_file(wl):
    trace, _, report, _ = next(iter(wl.results.values()))
    text = trace.read_text(encoding="utf-8")
    lines = text.splitlines()
    k = 1 + int(np.nanargmin(report.h_stream))
    lines[k] = lines[k][:-1] + ("0" if lines[k].endswith("1") else "1")
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lambda: trace.write_text(text, encoding="utf-8")


def _cmap(wl, fn):
    cmap = next(iter(wl.results.values()))[3]
    return _detect_result(wl, cmap=fn(cmap))


def detect_cases(wl):
    _, _, report, cmap = next(iter(wl.results.values()))
    if cmap is None:
        raise CheckFailed("the tiny detect recording raised no alarm, so "
                          "localization cannot be perturbed")
    w = report.params.window
    last = report.h_stream.size - 1

    def bump(k, rel=1e-6, abs_=0.0):
        def fn(arr, rep):
            i = k(rep) if callable(k) else k
            arr[i] = arr[i] * (1.0 + rel) + abs_
        return fn

    def warm(arr, rep):
        arr[w - 2] = 0.0

    def other_cell(c):
        return dataclasses.replace(c, cell_serial=c.cell_serial % 24 + 1)

    def bumped_scores(c):
        scores = c.contributions.copy()
        scores[0] += 1e-6
        return dataclasses.replace(c, contributions=scores)

    return [
        ("h_d warm-up", "warm-up", lambda: _streams(wl, "h_d", warm)),
        ("h_d", "h_d disagrees", lambda: _streams(wl, "h_d", bump(last))),
        ("h_s", "h_s disagrees",
         lambda: _streams(wl, "h_s", bump(last, rel=0.0, abs_=1e-6))),
        ("h_t", "h_t disagrees", lambda: _streams(wl, "h_t", bump(_train_peak))),
        ("normalizer", "normalizers", lambda: _params(wl, max_hs=1 + 1e-6)),
        ("H", "H disagrees", lambda: _h_stream(wl, bump(_train_peak))),
        ("threshold", "KDE mass", lambda: _params(wl, h_r=1 + 1e-5)),
        ("alarm rule", "exactly H > H_r", lambda: _flip_quiet_alarm(wl)),
        ("first alarm", "first alarm",
         lambda: _outcome(wl, t_f=report.outcome.t_f + 1.0)),
        ("trace file", "trace alarm column", lambda: _trace_file(wl)),
        ("named cell", "named cell", lambda: _cmap(wl, other_cell)),
        ("cell scores", "contributions differ",
         lambda: _cmap(wl, bumped_scores)),
    ]


def _tune_last(wl, candidates=None, params=None):
    evaluator, cands, prm = wl.last
    return _set(wl, "last", (evaluator, candidates or cands, params or prm))


def _worst_candidate(wl):
    evaluator, candidates, params = wl.last
    worst = max(candidates, key=lambda c: evaluator.evaluate(*c).objective_value)
    return _tune_last(wl, params=dataclasses.replace(
        params, window=worst[0], alpha=tuple(float(a) for a in worst[1])))


def _relabelled_recording(wl):
    first = wl.recordings[0]
    labels = first.labels.copy()
    labels[-1] = 0
    return _set(wl, "recordings",
                [dataclasses.replace(first, labels=labels)] + wl.recordings[1:])


def tune_cases(wl):
    _, candidates, _ = wl.last
    window, alpha = candidates[1]
    return [
        ("evaluate count", "evaluate calls",
         lambda: _tune_last(wl, candidates=candidates[:-1])),
        ("window bound", "outside",
         lambda: _tune_last(wl, candidates=candidates[:-1]
                            + [(wl.ga.w_max + 1, alpha)])),
        ("simplex", "off the simplex",
         lambda: _tune_last(wl, candidates=candidates[:-1]
                            + [(window, (0.5, 0.5, 0.01))])),
        ("seed individual", "stock seed individual",
         lambda: _tune_last(wl, candidates=[candidates[1]]
                            + candidates[1:])),
        ("elitism", "worse than", lambda: _worst_candidate(wl)),
        ("cache transparency", "fresh evaluator",
         lambda: _relabelled_recording(wl)),
    ]


CASES = {"suite": suite_cases, "detect": detect_cases, "tune": tune_cases}


def main() -> int:
    ok = True
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name, cases in CASES.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            wl = WORKLOADS[name](ROOT, workdir, SEED, TINY)
            wl.setup()
            errors = []
            attempted, failed = wl.round(timer([], errors))
            if failed or errors:
                print(f"FAIL {name}: {failed}/{attempted} operations failed: "
                      f"{errors}")
                ok = False
                continue
            try:
                wl.check()
                print(f"ok   {name}: checks pass on the real outputs")
            except CheckFailed as exc:
                print(f"FAIL {name}: {exc}")
                ok = False
                continue
            for label, needle, perturb in cases(wl):
                restore = perturb()
                try:
                    wl.check()
                    verdict, why = False, "check passed"
                except CheckFailed as exc:
                    verdict, why = needle in str(exc), str(exc)
                finally:
                    restore()
                ok &= verdict
                print(f"{'ok  ' if verdict else 'FAIL'} {name} / {label}: "
                      f"{why[:100]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
