"""Every public name of the package has a caller in the program.

A name in `tameapprox.__all__` must be read somewhere in `src/` outside
`__init__.py`, in `demos/` or in `perfbench/`.  The benchmark tracer names
its targets as strings ("cohomology", "res_h1"), so the dotted parts of a
string constant count as well.  A name that only the tests call belongs in
`tests/oracle_helpers.py`; the exceptions are listed with their reason.
"""

import ast
from pathlib import Path

import tameapprox

ROOT = Path(__file__).resolve().parents[1]
# public names that only the tests call, each kept as an oracle
ORACLES = {"kronecker": "test_acceptance's Jacobi symbol for criterion 6"}


def program_files():
    yield from (p for p in sorted((ROOT / "src" / "tameapprox").glob("*.py"))
                if p.name != "__init__.py")
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from sorted((ROOT / "perfbench").glob("*.py"))


def referenced_names():
    """The names read, the attributes taken and the dotted parts of the
    string constants in the program files."""
    names = set()
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller():
    unused = set(tameapprox.__all__) - referenced_names()
    assert unused == set(ORACLES), sorted(unused - set(ORACLES)) or sorted(ORACLES)


def test_each_oracle_is_used_by_the_tests():
    tests = "".join(p.read_text() for p in sorted(ROOT.glob("tests/test_*.py")))
    for name in ORACLES:
        assert f"{name}(" in tests, name
