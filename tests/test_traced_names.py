"""Every function the benchmark tracer wraps must still exist.

`perfbench/tracer.py` patches the functions listed in its TARGETS by name;
a renamed or deleted one would break `perfbench/run.py --trace 1`.  The
list is read from that file's source, without importing or changing it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    for module, path in targets:
        owner = importlib.import_module(f"tameapprox.{module}")
        owner_path, _, attr = path.rpartition(".")
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        # the tracer reads class attributes from the class's own __dict__
        found = owner.__dict__.get(attr) if owner_path else getattr(owner, attr, None)
        assert callable(found), f"{module}.{path} is not a callable in tameapprox"
