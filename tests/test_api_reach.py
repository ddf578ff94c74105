"""Every function, class, method and property in the package has a non-test user.

A definition that only tests reach is a test oracle in the public API; it
belongs in tests/ (see paper_oracles.py) or nowhere. Dunder methods are
called by the language, so they are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "demos", "perfbench")

# the scenario-format writer: the CLI tests build their scenario files with
# it, and read_scenario's format needs a writer whatever the package writes
ALLOWED = {"io.write_scenario"}


def definitions(source: str) -> list[str]:
    """Module-level functions and classes, then each class's methods and
    properties as Class.name."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__")
                               and item.name.endswith("__"))]
    return names


def referenced_names(source: str) -> tuple[set[str], set[str]]:
    """Names a file can reach a definition by, and those that reach a member.

    The first set holds names read, imported or looked up as attributes,
    plus identifier strings such as the attribute names in the benchmark
    tracer's SITES. A class member is reached only through an attribute
    lookup or an identifier string, so the second set leaves out bare names
    and imports: a local variable spelled like a method does not use it.
    """
    names, members = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.asname, node.name.split(".")[-1]} - {None})
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
            members.add(node.value)
    return names, members


def unreached(package: Path, users: list[Path]) -> list[str]:
    """module.name of each package definition that no user file reaches."""
    names, members = set(), set()
    for path in users:
        file_names, file_members = referenced_names(
            path.read_text(encoding="utf-8"))
        names |= file_names
        members |= file_members
    found = [f"{p.stem}.{name}" for p in sorted(package.glob("*.py"))
             for name in definitions(p.read_text(encoding="utf-8"))
             if name.split(".")[-1] not in (members if "." in name else names)]
    return [name for name in found if name not in ALLOWED]


def test_scanner_sees_every_kind_of_reference():
    source = ("import a.b as c\nfrom m import f, g as h\nx = obj.attr\n"
              "SITES = ((mod, 'traced', 'span.name', None),)\n"
              "def d():\n    m = y\n    return m\n"
              "class K:\n    def __init__(self): pass\n"
              "    def m(self): pass\n    @property\n"
              "    def p(self): return 1\n")
    names, members = referenced_names(source)
    assert names == {"c", "b", "f", "g", "h", "x", "obj", "attr", "SITES",
                     "mod", "traced", "y", "m", "property"}
    # the local m is a name, but it does not reach the method K.m
    assert members == {"attr", "traced"}
    assert definitions(source) == ["d", "K", "K.m", "K.p"]


def test_local_variable_does_not_hide_a_member(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used(): pass\nclass K:\n    def m(self): pass\n"
        "    def n(self): pass\n", encoding="utf-8")
    user = tmp_path / "user.py"
    user.write_text("from mod import used, K\nm = 3\nK().n()\n",
                    encoding="utf-8")
    assert unreached(package, [user]) == ["mod.K.m"]


def test_every_definition_has_a_non_test_user():
    users = [path for d in USERS for path in sorted((ROOT / d).rglob("*.py"))]
    assert unreached(ROOT / "src" / "packdiag", users) == []
