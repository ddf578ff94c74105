"""Print SHA-256 digests of the outputs a refactor must leave unchanged.

Runs the packdiag command line of one checkout in a temporary directory and
prints one `digest  name` line per output, sorted by name:

- the `simulate` CSV of each shipped scenario (`sc01.csv` ...);
- the `simulate` CSV of a run that a cell runs dry in at 810 of its 900
  frames (`depleted.csv`), so the early stop is compared too;
- the `benchmark scenarios/` report (`report.csv`);
- the `detect` traces of each of those CSVs at w = 27 and w = 200
  (`sc01.w27.trace.csv` ...);
- the `localize` contribution CSV at each trace's first alarm
  (`sc01.w27.contrib.csv` ...), for every trace that alarms;
- a short `fit --optimize` params file (`tune.params`): population 10,
  5 generations, seed 0, on the three 1200-frame recordings of the `tune`
  workload (faults in cells 4 and 23 from t = 700 s, and one normal run);
- a `fit` params file calibrated at the defaults on that normal run alone
  (`fit.params`), and the `detect --no-refit` trace of each shipped
  scenario's CSV with it (`sc01.norefit.trace.csv` ...).

Usage, from anywhere:

    python3 scripts/output_digests.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script. Run it on two
checkouts and diff the output to compare them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

WINDOWS = (27, 200)

# the tune workload's recordings, as scenario files
TUNE_SCENARIOS = {
    "tune_fault_a": "duration = 1200.0\nrng_seed = 201\n"
                    "fault_cell = 4\nr_short = 10.0\nonset = 700.0\n",
    "tune_fault_b": "duration = 1200.0\nrng_seed = 202\n"
                    "fault_cell = 23\nr_short = 10.0\nonset = 700.0\n",
    "tune_normal": "duration = 1200.0\nrng_seed = 203\n",
}

# at 16 C a cell runs dry at 810 s
DEPLETED_SCENARIO = "duration = 900.0\ndischarge_rate = 16.0\nrng_seed = 3\n"


def run(main, *argv: str):
    """One packdiag command with its console output swallowed; a failed one
    exits with what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"packdiag {' '.join(argv)} exited {code}: "
                 f"{err.getvalue().strip()}")


def first_alarm(trace: str) -> str | None:
    """The time field of a trace's first alarmed row, as written."""
    rows = (line.split(",") for line in trace.splitlines()[1:])
    return next((row[0] for row in rows if row[-1] == "1"), None)


def produce(checkout: Path, out: Path) -> list[Path]:
    """Write every compared output under out and return their paths."""
    sys.path.insert(0, str(checkout / "src"))
    from packdiag.cli import main

    for w in WINDOWS:
        (out / f"w{w}.params").write_text(f"window = {w}\n", encoding="utf-8")
    made = []
    csvs = []
    for scenario in sorted((checkout / "scenarios").glob("*.scenario")):
        csv = out / f"{scenario.stem}.csv"
        run(main, "simulate", str(scenario), "--out", str(csv))
        made.append(csv)
        csvs.append(csv)
        for w in WINDOWS:
            trace = out / f"{scenario.stem}.w{w}.trace.csv"
            params = str(out / f"w{w}.params")
            run(main, "detect", str(csv), "--params", params,
                "--out", str(trace))
            made.append(trace)
            t_f = first_alarm(trace.read_text(encoding="utf-8"))
            if t_f is not None:
                contrib = out / f"{scenario.stem}.w{w}.contrib.csv"
                run(main, "localize", str(csv), "--params", params,
                    "--tf", t_f, "--out", str(contrib))
                made.append(contrib)

    depleted = out / "depleted.scenario"
    depleted.write_text(DEPLETED_SCENARIO, encoding="utf-8")
    dry = out / "depleted.csv"
    run(main, "simulate", str(depleted), "--out", str(dry))
    made.append(dry)

    report = out / "report.csv"
    run(main, "benchmark", str(checkout / "scenarios"), "--out", str(report))
    made.append(report)

    recordings = {}
    for name, text in TUNE_SCENARIOS.items():
        scenario = out / f"{name}.scenario"
        scenario.write_text(text, encoding="utf-8")
        recordings[name] = out / f"{name}.csv"
        run(main, "simulate", str(scenario), "--out", str(recordings[name]))
    tuned = out / "tune.params"
    run(main, "fit", "--normal", str(recordings["tune_normal"]),
        "--fault", str(recordings["tune_fault_a"]),
        str(recordings["tune_fault_b"]),
        "--optimize", "--population", "10", "--generations", "5",
        "--seed", "0", "--out", str(tuned))
    made.append(tuned)

    fitted = out / "fit.params"
    run(main, "fit", "--normal", str(recordings["tune_normal"]),
        "--out", str(fitted))
    made.append(fitted)
    for csv in csvs:
        trace = out / f"{csv.stem}.norefit.trace.csv"
        run(main, "detect", str(csv), "--params", str(fitted), "--no-refit",
            "--out", str(trace))
        made.append(trace)
    return made


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    if not (checkout / "src" / "packdiag" / "__init__.py").is_file():
        print(f"error: no packdiag sources under {checkout}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(produce(checkout.resolve(), Path(tmp)),
                           key=lambda p: p.name):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
