"""Acceptance battery.

Each test prints one PASS/FAIL line for its criterion (visible with
`pytest -s` or in failure output) and asserts exactness with no tolerances.
Run the whole battery with:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time

from tameapprox.cli import main
from tameapprox.cohomology import dimension_shift_check, h1, res_h1, sha_sigma
from tameapprox.finite_groups import (
    all_subgroups,
    builtin_group,
    cyclic_subgroups,
)
from tameapprox.g_modules import restrict
from tameapprox.arithmetic import is_prime, kronecker, local_square
from tameapprox.zmod_linalg import AbGroupStructure, IntMatrix, snf

from oracle_helpers import (
    brute_h1_order,
    brute_is_square_mod_odd_prime,
    is_brute_coboundary,
    trial_division_factor,
)
from random_modules import sweep_modules

BATTERY_EXPECTED = {
    "klein4": (2,),
    "z2xz4": (2,),
    "z4": (),
    "z3xz3": (3,),
    "s3": (),
    "z6": (),
    "q8": (2,),
    "z2xz2xz2": (4,),
}


VERDICT_LOG = []  # echoed by the conftest terminal-summary hook


def verdict(number, name, ok, elapsed=None):
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{extra}"
    VERDICT_LOG.append(line)
    print(line)
    assert ok, line


def run_cli_json(tmp_path, *argv):
    out = tmp_path / "report.json"
    status = main([*argv, "--output", str(out)])
    return status, json.loads(out.read_text())


def test_criterion_1_lemma_battery(tmp_path):
    start = time.perf_counter()
    ok = True
    for name, expected in BATTERY_EXPECTED.items():
        status, report = run_cli_json(tmp_path, "verify-lemma", "--group", f"builtin:{name}")
        computed = tuple(int(d) for d in report["computed"])
        ok = ok and status == 0 and report["pass"] and computed == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict(1, "augmentation-ideal lemma battery", ok, elapsed)


def test_criterion_2_dimension_shift_every_subgroup():
    start = time.perf_counter()
    ok = True
    for name in BATTERY_EXPECTED:
        group = builtin_group(name)
        reports = dimension_shift_check(group, all_subgroups(group))
        for rep in reports:
            expected = AbGroupStructure(
                [rep.subgroup.order] if rep.subgroup.order > 1 else [])
            ok = ok and rep.ideal_h1 == expected and rep.ring_h1.is_trivial
    verdict(2, "dimension shift over every subgroup", ok, time.perf_counter() - start)


def test_criterion_3_flagship_counterexample(tmp_path):
    start = time.perf_counter()
    status, report = run_cli_json(tmp_path, "certify", "--ell", "2", "--n", "1", "--p", "3")
    elapsed = time.perf_counter() - start
    ok = status == 0
    ok = ok and report["parameters"]["q"] == "17"
    ok = ok and report["sigma0"]["labels"] == ["3", "17"] and report["sigma0"]["exact"]
    ok = ok and report["sha"]["sigma0"] == ["2"]
    ok = ok and report["sha"]["sigma0_minus"] == {"3": [], "17": []}
    ok = ok and report["sha"]["full"] == []
    ok = ok and report["conclusion"] == "certified"
    ok = ok and report["module"]["order_exponent"] == "6"  # |A| = 2^6
    ok = ok and elapsed < 10.0
    verdict(3, "flagship counterexample (ell=2, n=1, p=3)", ok, elapsed)


def test_criterion_4_breadth_sweep(tmp_path):
    start = time.perf_counter()
    ok = True
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        status, report = run_cli_json(
            tmp_path, "certify", "--ell", "2", "--n", "1", "--p", str(p))
        ok = ok and status == 0 and report["conclusion"] == "certified"

    status, report = run_cli_json(tmp_path, "certify", "--ell", "3", "--n", "1", "--p", "7")
    ok = ok and status == 0 and report["conclusion"] == "certified"
    ok = ok and report["sha"]["cyc"] == ["3"]

    status, report = run_cli_json(tmp_path, "certify", "--ell", "2", "--n", "2", "--p", "5")
    ok = ok and status == 0 and report["conclusion"] == "certified"
    ok = ok and report["sigma0"]["exact"] is False
    ok = ok and "not determined" in report["sigma0"]["statement"]

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    verdict(4, "breadth sweep (p < 200; ell=3; n=2)", ok, elapsed)


def _cross_check_restrictions(group, module):
    """res_h1 data must agree with brute coboundary membership everywhere."""
    result = h1(group, module)
    if not result.structure.invariant_factors:
        return True
    ok = True
    for sub in cyclic_subgroups(group):
        if sub.order == 1:
            continue
        sub_group = sub.as_group()
        sub_module = restrict(module, sub)
        mat = res_h1(group, sub, module)
        for j, col in enumerate(result.presentation.generator_columns):
            rep = result.cocycle(col)
            res_rep = tuple(rep[x] for x in sub.elements)
            claims_zero = all(mat[i, j] == 0 for i in range(mat.rows))
            ok = ok and claims_zero == is_brute_coboundary(sub_group, sub_module, res_rep)
    sha = sha_sigma(group, module, places=[], excluded=())
    for values in sha.generators:
        rep = result.cocycle(values)
        for sub in cyclic_subgroups(group):
            if sub.order == 1:
                continue
            res_rep = tuple(rep[x] for x in sub.elements)
            ok = ok and is_brute_coboundary(sub.as_group(), restrict(module, sub), res_rep)
    return ok


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    runs = 0
    ok = True
    for group, module in sweep_modules():
        assert module.size <= 81
        ok = ok and h1(group, module).order == brute_h1_order(group, module)
        ok = ok and _cross_check_restrictions(group, module)
        runs += 1
    ok = ok and runs >= 50
    verdict(5, f"oracle equivalence ({runs} randomized modules)", ok,
            time.perf_counter() - start)


def test_criterion_6_snf_and_local_arithmetic():
    start = time.perf_counter()
    ok = True

    rng = random.Random(0xacce97)
    for _ in range(60):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        mat = IntMatrix(rows, cols, [rng.randint(-50, 50) for _ in range(rows * cols)])
        u, d, v = snf(mat)
        ok = ok and u @ mat @ v == d
        ok = ok and abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d[i, i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            ok = ok and (b == 0 if a == 0 else b % a == 0) and a >= 0

    squarefree = [d for d in range(-20, 21)
                  if d and all(e == 1 for e in trial_division_factor(abs(d)).values())]
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        for d in squarefree:
            brute = brute_is_square_mod_odd_prime(d, p)
            euler = local_square(d, p).is_square
            kron = d % p != 0 and kronecker(d, p) == 1
            ok = ok and euler == brute and kron == brute

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict(6, "SNF and local-arithmetic property suites", ok, elapsed)
