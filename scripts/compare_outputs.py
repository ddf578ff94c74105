"""Say how the outputs of two checkouts differ, not only whether they do.

Writes the outputs that scripts/output_digests.py digests, once per
checkout, and prints one line per output, sorted by name:

- `identical` when the bytes match;
- for a `detect` trace: how many lines changed, how many alarm flags
  flipped, whether the first alarm time t_f moved, and the largest
  relative change of each numeric column that changed;
- for `tune.params`: the keys whose values changed, old -> new;
- for any other file: how many lines changed.

Usage, from anywhere:

    python3 scripts/compare_outputs.py OLD NEW

OLD and NEW are checkouts. It takes about two minutes: each side runs the
whole output_digests set. The exit status is 0 when every output is
identical, 1 when any differs, and 2 on bad arguments.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from output_digests import first_alarm, produce


def _produce_fresh(checkout: Path, out: Path) -> list[Path]:
    """produce() with the other checkout's packdiag forgotten first."""
    for name in [m for m in sys.modules
                 if m == "packdiag" or m.startswith("packdiag.")]:
        del sys.modules[name]
    return produce(checkout, out)


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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py OLD NEW", file=sys.stderr)
        return 2
    checkouts = [Path(arg).resolve() for arg in argv]
    for checkout in checkouts:
        if not (checkout / "src" / "packdiag" / "__init__.py").is_file():
            print(f"error: no packdiag sources under {checkout}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for side, checkout in zip(("old", "new"), checkouts):
            out = Path(tmp) / side
            out.mkdir()
            outputs.append({p.name: p.read_bytes()
                            for p in _produce_fresh(checkout, out)})
    old, new = outputs
    if old.keys() != new.keys():
        print(f"error: output sets differ: {sorted(old.keys() ^ new.keys())}",
              file=sys.stderr)
        return 1
    verdicts = [compare(name, old[name], new[name]) for name in sorted(old)]
    for name, verdict in zip(sorted(old), verdicts):
        print(f"{name}: {verdict}")
    return 0 if all(v == "identical" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
