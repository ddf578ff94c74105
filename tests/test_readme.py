"""The README's library example runs and gives the figures the README quotes."""

import re
from pathlib import Path

from packdiag import contributions_at

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_the_quoted_alarms():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code, prose = re.fullmatch(r"\s*```python\n(.*?)```(.*)", section,
                               re.S).groups()
    prose = " ".join(prose.split())
    assert "(1015 s here, naming cell 4)" in prose
    assert "at 264 s, inside the 600 s training prefix, and names cell 9" in prose

    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    met, cmap, report = scope["met"], scope["cmap"], scope["report"]
    assert met.t_detect == 1015.0 and cmap.cell_serial == 4
    t_f = report.outcome.t_f
    raw = contributions_at(scope["tele"], t_f, report.params.window)
    assert t_f == 264.0 and raw.cell_serial == 9


def test_scripts_and_readme_name_each_other():
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"scripts/\w+\.py", text))
    shipped = {path.relative_to(README.parent).as_posix()
               for path in (README.parent / "scripts").glob("*.py")}
    assert named <= shipped, f"README names missing scripts: {named - shipped}"
    assert shipped <= named, f"README leaves out scripts: {shipped - named}"
