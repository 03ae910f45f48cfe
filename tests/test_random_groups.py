"""Seeded random permutation groups against the oracles.

Each draw from `random.Random(seed)` is a degree d in 3..6 and 1 to 3
random permutations of 0..d-1; the group they generate is kept if its
order is at most the bound and fewer than two groups of that order are
kept already.  The draws do not depend on the bound, so a lower bound
keeps a subset of the groups of a higher one.  Per group:

* `verify_augmentation_lemma` and `dimension_shift_check` on its default
  family pass, except on the trivial group, which both refuse: the default
  modulus |G| = 1 is not a modulus;
* on two seeded `random_gmodule`s, `h1` agrees with `cayley_h1` and
  `sha_cyc` with `cayley_restriction_kernel` over its cyclic subgroups.

A cyclic group is one of its own cyclic subgroups, so its `sha_cyc` takes
the rule that a family containing G has kernel 0; the Cayley oracle solves
it member by member.

Tier-1 runs seed 1 up to order `TIER1_MAX_ORDER`, a bound chosen for time,
not by which cases pass: up to 60 the battery takes about 3 s of CPU
(CPython 3.11, 2-CPU container).  CI runs seeds 1 and 7 up to order 72
with `PYTHONPATH=src python tests/test_random_groups.py --seed S`.
"""

import argparse
import random
import sys

import pytest

from tameapprox.cohomology import dimension_shift_check, h1, sha_cyc, verify_augmentation_lemma
from tameapprox.finite_groups import cyclic_subgroups, from_permutations

from oracle_helpers import cayley_h1, cayley_restriction_kernel
from random_modules import random_gmodule

SEED = 1
DRAWS = 400
TIER1_MAX_ORDER = 60
FULL_MAX_ORDER = 72
ORDER_1 = "the group has order 1, and the default modulus |G| must be >= 2"


def random_groups(seed, max_order):
    """(order, permutations) of the kept groups, in draw order."""
    rng = random.Random(seed)
    kept = {}
    battery = []
    for _ in range(DRAWS):
        degree = rng.randint(3, 6)
        perms = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
        try:
            order = from_permutations(perms, limit=max_order).order
        except ValueError:  # the only refusal of valid permutations: more than max_order elements
            continue
        if kept.get(order, 0) < 2:
            kept[order] = kept.get(order, 0) + 1
            battery.append((order, perms))
    return battery


def seeded_modules(g, perms, seed):
    """The two random modules the battery checks on the group of `perms`."""
    rng = random.Random(f"{seed} {perms}")
    return [random_gmodule(g, rng) for _ in range(2)]


def check_group(perms, seed):
    """Run every check on the group of `perms`, and return the group."""
    g = from_permutations(perms)
    if g.order == 1:
        for check in (verify_augmentation_lemma, dimension_shift_check):
            try:
                check(g)
            except ValueError as exc:
                assert str(exc) == ORDER_1, exc
            else:
                raise AssertionError(f"{check.__name__} accepted the trivial group")
    else:
        assert verify_augmentation_lemma(g).passed
        assert all(report.passed for report in dimension_shift_check(g))
    cyclic = cyclic_subgroups(g)
    for mod in seeded_modules(g, perms, seed):
        assert h1(g, mod).structure == cayley_h1(g, mod)[0], mod.label
        assert sha_cyc(g, mod) == cayley_restriction_kernel(g, mod, cyclic), mod.label
    return g


TIER1 = random_groups(SEED, TIER1_MAX_ORDER)


@pytest.mark.parametrize("order, perms", TIER1,
                         ids=[f"order{order}-{perms}" for order, perms in TIER1])
def test_random_group_against_the_oracles(order, perms):
    assert check_group(perms, SEED).order == order


def test_the_battery_reaches_the_trivial_and_cyclic_groups():
    # order 1 stays in, with its refusal, and some cyclic group has a
    # nonzero H^1 that the rule for a family containing G sends to 0
    assert 1 in [order for order, _ in TIER1]
    shortcut = 0
    for order, perms in TIER1:
        g = from_permutations(perms)
        if order > 1 and any(g.element_order(x) == order for x in range(order)):
            for mod in seeded_modules(g, perms, SEED):
                shortcut += not h1(g, mod).structure.is_trivial
                assert sha_cyc(g, mod).is_trivial
    assert shortcut >= 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--max-order", type=int, default=FULL_MAX_ORDER)
    args = parser.parse_args()
    failed = 0
    for order, perms in random_groups(args.seed, args.max_order):
        try:
            check_group(perms, args.seed)
            verdict = "ok"
        except AssertionError as exc:
            failed += 1
            verdict = f"FAILED {exc}"
        print(f"order {order:3d} {perms}: {verdict}", flush=True)
    sys.exit(1 if failed else 0)
