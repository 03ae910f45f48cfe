"""Non-abelian solvable groups as oracle cases: D8, D16, Q16, SD16, A4, SL(2,3).

Each group is built from the permutations below.  D8 and D16 act on the
vertices of a square and an octagon; Q16 and SD16 are the left regular
representations of <a, b | a^8 = 1, b^2 = a^4, b a b^-1 = a^-1> and
<a, b | a^8 = b^2 = 1, b a b^-1 = a^3> on the elements a^i b^j, numbered
i + 8j; A4 is generated by (0 1 2) and (0 1)(2 3); SL(2,3) acts on the 8
nonzero vectors of F_3^2 through [[1, 1], [0, 1]] and [[1, 0], [1, 1]].

On each group: the lemma Sha^1_cyc(G, I) = Z/(|G|/exp G), the dimension
shift over every subgroup, and `sha_cyc` against the Cayley-graph oracle on
seeded random modules and on the augmentation ideal.
"""

import random
from math import lcm

import pytest

from tameapprox.cohomology import (
    dimension_shift_check,
    h1,
    sha_cyc,
    verify_augmentation_lemma,
)
from tameapprox.finite_groups import all_subgroups, cyclic_subgroups, from_permutations
from tameapprox.g_modules import augmentation_ideal
from tameapprox.zmod_linalg import AbGroupStructure

from oracle_helpers import cayley_restriction_kernel
from random_modules import random_gmodule

PERMUTATIONS = {
    "D8": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "D16": [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)],
    "Q16": [(1, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12, 13, 14, 15, 8),
            (8, 15, 14, 13, 12, 11, 10, 9, 4, 3, 2, 1, 0, 7, 6, 5)],
    "SD16": [(1, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12, 13, 14, 15, 8),
             (8, 11, 14, 9, 12, 15, 10, 13, 0, 3, 6, 1, 4, 7, 2, 5)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "SL(2,3)": [(3, 7, 2, 6, 1, 5, 0, 4), (0, 1, 3, 4, 2, 7, 5, 6)],
}

# (order, exponent, elements of order 2): the three groups of order 16 have
# 9, 1 and 5 involutions, so these tell every group here apart
SHAPES = {
    "D8": (8, 4, 5),
    "D16": (16, 8, 9),
    "Q16": (16, 8, 1),
    "SD16": (16, 8, 5),
    "A4": (12, 6, 3),
    "SL(2,3)": (24, 12, 1),
}

NAMES = sorted(PERMUTATIONS)


def group(name):
    return from_permutations(PERMUTATIONS[name])


@pytest.mark.parametrize("name", NAMES)
def test_the_permutations_give_the_named_group(name):
    g = group(name)
    orders = [g.element_order(x) for x in range(g.order)]
    assert (g.order, lcm(*orders), orders.count(2)) == SHAPES[name]
    assert any(g.table[a][b] != g.table[b][a] for a in range(g.order) for b in range(g.order))


@pytest.mark.parametrize("name", NAMES)
def test_augmentation_lemma(name):
    order, exponent, _ = SHAPES[name]
    report = verify_augmentation_lemma(group(name))
    assert report.passed
    assert report.computed == AbGroupStructure([order // exponent])


@pytest.mark.parametrize("name", NAMES)
def test_dimension_shift_over_every_subgroup(name):
    g = group(name)
    subgroups = all_subgroups(g)
    reports = dimension_shift_check(g, subgroups)
    assert len(reports) == len(subgroups)
    assert all(report.passed for report in reports)


@pytest.mark.parametrize("name", NAMES)
def test_sha_cyc_against_cayley_oracle(name):
    g = group(name)
    rng = random.Random(16)
    modules = [random_gmodule(g, rng, max_size=81) for _ in range(6)]
    modules.append(augmentation_ideal(g, g.order)[0])
    cyclic = cyclic_subgroups(g)
    for mod in modules:
        assert sha_cyc(g, mod) == cayley_restriction_kernel(g, mod, cyclic), mod.label
    # the restriction is tested on classes, not only on zero groups
    assert sum(not h1(g, mod).structure.is_trivial for mod in modules) >= 3
