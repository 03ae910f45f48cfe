"""The elimination work of fixed cases, pinned exactly.

Each case runs in a fresh interpreter with `zmod_linalg._reduce` wrapped,
since the group, module and H^1 caches are process-wide: a second
`certify(2, 2, 5)` in one process reduces far less than the first.  Four
counts are summed over the calls: the calls themselves, rows x width at
each call, pivot steps (`len(log)`) and row updates (the total of
`len(ops)`).  Any change, up or down, fails; a change that moves a count
updates `tests/golden/work_counts.json` and says which count moved and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent
GOLDEN = REPO_DIR / "tests" / "golden" / "work_counts.json"

COUNTING = """
import json
from tameapprox import zmod_linalg

counts = {"calls": 0, "rows_x_width": 0, "pivot_steps": 0, "row_updates": 0}
real = zmod_linalg._reduce

def counting(rows, p, e):
    counts["calls"] += 1
    counts["rows_x_width"] += len(rows) * len(rows[0]) if rows else 0
    vals, log = real(rows, p, e)
    counts["pivot_steps"] += len(log)
    counts["row_updates"] += sum(len(ops) for *_, ops in log)
    return vals, log

zmod_linalg._reduce = counting
"""

CASES = {
    "certify(2,2,5)": """
from tameapprox.arithmetic import certify
assert certify(2, 2, 5).certified
""",
    "certify(3,1,7)": """
from tameapprox.arithmetic import certify
assert certify(3, 1, 7).certified
""",
    "sha_cyc zlxzln:2:6": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import builtin_group
from tameapprox.g_modules import _ideal_module
group = builtin_group("zlxzln:2:6")
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc S4": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import from_permutations
from tameapprox.g_modules import _ideal_module
group = from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)])
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc (Z/2)^5": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import cyclic_group, direct_product
from tameapprox.g_modules import _ideal_module
group = direct_product(*[cyclic_group(2)] * 5)
sha_cyc(group, _ideal_module(group, group.order))
""",
}


def work_counts(case):
    code = COUNTING + CASES[case] + "\nprint(json.dumps(counts))\n"
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_work_counts_match_golden(case):
    assert work_counts(case) == json.loads(GOLDEN.read_text())[case]


def test_golden_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
