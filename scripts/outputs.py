"""Guard the outputs a refactor must leave unchanged.

Usage, from anywhere:

    python3 scripts/outputs.py digests [CHECKOUT]
    python3 scripts/outputs.py compare OLD NEW

Each checkout's packdiag command line writes, in a temporary directory, the
`simulate` CSV of each shipped scenario and of a run that a cell runs dry
in at 810 of its 900 frames; the `benchmark scenarios/` report; each
shipped CSV's `detect` trace at w = 27 and 200, and the `localize` CSV at
each trace's first alarm; a short `fit --optimize` params file on the three
recordings of the perfbench `tune` workload (`optimizer_test_configs`); a
`fit` params file on its normal run alone; and each shipped CSV's
`detect --no-refit` trace with that file.

`digests` prints `sha256  name` for each output of CHECKOUT (by default
this script's checkout), sorted by name. `compare` prints `name: verdict`:
`identical`, or for a trace the lines changed, the alarm flips, whether
t_f moved and each changed column's largest relative change; for a params
file the keys changed, old -> new; for any other file the lines changed.
It exits 0 when every output is identical and 1 when any differs. A bad
argument exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# this checkout's packdiag, loaded here, writes the tune scenario files of
# every checkout measured; produce() forgets it before it loads that one's
from packdiag.io import write_scenario  # noqa: E402
from workloads import optimizer_test_configs  # noqa: E402

WINDOWS = (27, 200)

# at 16 C a cell runs dry at 810 s
DEPLETED_SCENARIO = "duration = 900.0\ndischarge_rate = 16.0\nrng_seed = 3\n"


def checkout_dir(arg: str) -> Path:
    """The checkout named on the command line, if it holds packdiag."""
    checkout = Path(arg).resolve()
    if not (checkout / "src" / "packdiag" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(
            f"no packdiag sources under {checkout}")
    return checkout


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


def tune_scenarios(out: Path) -> dict[str, Path]:
    """Write the tune workload's recordings under out as scenario files."""
    paths = {}
    for name, cfg in optimizer_test_configs(1200.0).items():
        paths[name] = out / f"tune_{name}.scenario"
        write_scenario(paths[name], cfg)
    return paths


def produce(checkout: Path, out: Path) -> list[Path]:
    """Write every compared output of checkout under out, its inputs under
    out/inputs, and return the outputs' paths. Any packdiag already loaded
    is forgotten first, so the commands are checkout's own."""
    inputs = out / "inputs"
    inputs.mkdir()
    tune = tune_scenarios(inputs)
    for name in [m for m in sys.modules
                 if m == "packdiag" or m.startswith("packdiag.")]:
        del sys.modules[name]
    sys.path.insert(0, str(checkout / "src"))
    from packdiag.cli import main

    for w in WINDOWS:
        (inputs / f"w{w}.params").write_text(f"window = {w}\n",
                                             encoding="utf-8")
    csvs = []
    for scenario in sorted((checkout / "scenarios").glob("*.scenario")):
        csv = out / f"{scenario.stem}.csv"
        csvs.append(csv)
        run(main, "simulate", str(scenario), "--out", str(csv))
        for w in WINDOWS:
            trace = out / f"{scenario.stem}.w{w}.trace.csv"
            params = str(inputs / f"w{w}.params")
            run(main, "detect", str(csv), "--params", params,
                "--out", str(trace))
            t_f = first_alarm(trace.read_text(encoding="utf-8"))
            if t_f is not None:
                contrib = out / f"{scenario.stem}.w{w}.contrib.csv"
                run(main, "localize", str(csv), "--params", params,
                    "--tf", t_f, "--out", str(contrib))

    depleted = inputs / "depleted.scenario"
    depleted.write_text(DEPLETED_SCENARIO, encoding="utf-8")
    run(main, "simulate", str(depleted), "--out", str(out / "depleted.csv"))
    run(main, "benchmark", str(checkout / "scenarios"),
        "--out", str(out / "report.csv"))

    recordings = {name: str(scenario.with_suffix(".csv"))
                  for name, scenario in tune.items()}
    for name, scenario in tune.items():
        run(main, "simulate", str(scenario), "--out", recordings[name])
    run(main, "fit", "--normal", recordings["normal"],
        "--fault", recordings["fault_a"], recordings["fault_b"],
        "--optimize", "--population", "10", "--generations", "5",
        "--seed", "0", "--out", str(out / "tune.params"))
    fitted = str(out / "fit.params")
    run(main, "fit", "--normal", recordings["normal"], "--out", fitted)
    for csv in csvs:
        run(main, "detect", str(csv), "--params", fitted, "--no-refit",
            "--out", str(out / f"{csv.stem}.norefit.trace.csv"))
    return [path for path in out.iterdir() if path.is_file()]


def outputs_of(checkout: Path) -> dict[str, bytes]:
    """The bytes of each compared output of checkout, sorted by name."""
    with tempfile.TemporaryDirectory() as tmp:
        return {path.name: path.read_bytes()
                for path in sorted(produce(checkout, Path(tmp)))}


def compare_trace(old: str, new: str) -> str:
    """Changed lines, alarm flips, t_f and per-column relative change."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines) or old_lines[0] != new_lines[0]:
        return (f"shape differs: {len(old_lines)} -> {len(new_lines)} lines, "
                f"header {old_lines[0]!r} -> {new_lines[0]!r}")
    header = old_lines[0].split(",")
    old_rows = [line.split(",") for line in old_lines[1:]]
    new_rows = [line.split(",") for line in new_lines[1:]]
    changed = sum(a != b for a, b in zip(old_rows, new_rows))
    flips = sum(a[-1] != b[-1] for a, b in zip(old_rows, new_rows))
    largest = {}
    for a, b in zip(old_rows, new_rows):
        for col, x, y in zip(header[:-1], a[:-1], b[:-1]):
            if x == y:
                continue
            if not x or not y:
                largest[col] = float("inf")
                continue
            x, y = float(x), float(y)
            rel = abs(y - x) / abs(x) if x else float("inf")
            largest[col] = max(largest.get(col, 0.0), rel)
    t_f_old, t_f_new = first_alarm(old), first_alarm(new)
    t_f = (f"t_f {t_f_old}" if t_f_old == t_f_new
           else f"t_f MOVED {t_f_old} -> {t_f_new}")
    columns = ", ".join(f"{col} {rel:.1e}" for col, rel in largest.items())
    return (f"{changed} of {len(old_rows)} lines changed, {flips} alarm "
            f"flips, {t_f}; largest relative change: {columns}")


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.partition("=") for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, _, value in pairs}


def compare_params(old: str, new: str) -> str:
    """The keys whose values differ, with both values."""
    a, b = _key_values(old), _key_values(new)
    return "keys changed: " + "; ".join(
        f"{key} {a.get(key)} -> {b.get(key)}"
        for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key))


def compare(name: str, old: bytes, new: bytes) -> str:
    if old == new:
        return "identical"
    old_text, new_text = old.decode("utf-8"), new.decode("utf-8")
    if name.endswith(".trace.csv"):
        return compare_trace(old_text, new_text)
    if name.endswith(".params"):
        return compare_params(old_text, new_text)
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    changed = sum(a != b for a, b in zip(old_lines, new_lines))
    changed += abs(len(old_lines) - len(new_lines))
    return f"{changed} lines changed"


def digests(args: argparse.Namespace) -> int:
    for name, data in outputs_of(args.checkout).items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return 0


def compare_checkouts(args: argparse.Namespace) -> int:
    old, new = outputs_of(args.old), outputs_of(args.new)
    if old.keys() != new.keys():
        print(f"error: output sets differ: {sorted(old.keys() ^ new.keys())}",
              file=sys.stderr)
        return 1
    verdicts = {name: compare(name, old[name], new[name]) for name in old}
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    return 0 if all(v == "identical" for v in verdicts.values()) else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="outputs.py")
    commands = parser.add_subparsers(required=True)
    command = commands.add_parser("digests")
    command.add_argument("checkout", nargs="?", type=checkout_dir,
                         default=ROOT, metavar="CHECKOUT")
    command.set_defaults(run=digests)
    command = commands.add_parser("compare")
    command.add_argument("old", type=checkout_dir, metavar="OLD")
    command.add_argument("new", type=checkout_dir, metavar="NEW")
    command.set_defaults(run=compare_checkouts)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
