"""The elimination work of fixed cases, pinned exactly.

Each case runs in a fresh interpreter with `zmod_linalg._reduce` wrapped,
since the group, module and H^1 caches are process-wide: a second
`certify(2, 2, 5)` in one process reduces far less than the first.  Four
counts are summed over the calls: the calls themselves, rows x width at
each call, pivot steps (`len(log)`) and row updates (the total of
`len(ops)`).  Any change, up or down, fails; a change that moves a count
updates `tests/golden/work_counts.json` and says which count moved and why.
The same fresh-process run counts the `Group`s a second certificate builds.
The cases in `CI_CASES` take 0.3 to 1.3 s of CPU each, so tier-1 skips
them and CI runs them as a script: `PYTHONPATH=src python
tests/test_work_counts.py` exits 1 if any of their counts moved.
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
    "sha_cyc Z/8": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import builtin_group
from tameapprox.g_modules import _ideal_module
group = builtin_group("z8")
sha_cyc(group, _ideal_module(group, group.order))
""",
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
    "sha_cyc D16": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import from_permutations
from tameapprox.g_modules import _ideal_module
group = from_permutations([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc (Z/2)^5": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import cyclic_group, direct_product
from tameapprox.g_modules import _ideal_module
group = direct_product(*[cyclic_group(2)] * 5)
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc (Z/2)^6": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import cyclic_group, direct_product
from tameapprox.g_modules import _ideal_module
group = direct_product(*[cyclic_group(2)] * 6)
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc zlxzln:2:7": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import builtin_group
from tameapprox.g_modules import _ideal_module
group = builtin_group("zlxzln:2:7")
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc A5": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import from_permutations
from tameapprox.g_modules import _ideal_module
group = from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
sha_cyc(group, _ideal_module(group, group.order))
""",
    "sha_cyc D128": """
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import from_permutations
from tameapprox.g_modules import _ideal_module
group = from_permutations([tuple(range(1, 64)) + (0,), (0,) + tuple(range(63, 0, -1))])
sha_cyc(group, _ideal_module(group, group.order))
""",
    "certify(2,7,257)": """
from tameapprox.arithmetic import certify
assert certify(2, 7, 257).certified
""",
}

CI_CASES = {"sha_cyc A5", "sha_cyc D128", "certify(2,7,257)"}

# a second certificate of one (ell, n) builds no Group: the first call's
# group is the one of every later call
SECOND_CERTIFICATE = """
import json
from tameapprox.arithmetic import certify
from tameapprox.finite_groups import Group

assert certify(2, 2, 5).certified
built = []
init = Group.__init__

def counting(self, table, *args, **kwargs):
    built.append(len(table))
    init(self, table, *args, **kwargs)

Group.__init__ = counting
assert certify(2, 2, 5).certified
print(json.dumps(built))
"""


def fresh_process(code):
    """The JSON that `code` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def work_counts(case):
    return fresh_process(COUNTING + CASES[case] + "\nprint(json.dumps(counts))\n")


@pytest.mark.parametrize("case", sorted(set(CASES) - CI_CASES))
def test_work_counts_match_golden(case):
    assert work_counts(case) == json.loads(GOLDEN.read_text())[case]


def test_a_second_certificate_builds_no_group():
    assert fresh_process(SECOND_CERTIFICATE) == []


def test_golden_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text())
    moved = 0
    for case in sorted(CI_CASES):
        counts = work_counts(case)
        print(case, counts)
        if counts != golden[case]:
            print(f"  moved: golden has {golden[case]}")
            moved += 1
    sys.exit(1 if moved else 0)
