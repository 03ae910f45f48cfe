"""Randomized but exactly-validated G-module generation for the oracle sweep.

A random module is a coset permutation module on G/H, twisted by a random
character G -> (Z/m)^* and conjugated by a random product of elementary
matrices mod m, so the action is a genuine homomorphism by construction and
the GModule constructor re-verifies it.  Conjugation randomizes the matrices
without leaving exact arithmetic.
"""

import random
from itertools import product

from tameapprox.finite_groups import all_subgroups, builtin_group, cyclic_group
from tameapprox.g_modules import GModule

from oracle_helpers import spanning_tree


def _coset_permutation(group, sub):
    """Left-coset reps of H and, per g, the permutation matrix on cosets."""
    rep_of = {}
    reps = []
    for x in range(group.order):
        coset = frozenset(group.table[x][h] for h in sub.elements)
        if coset not in rep_of:
            rep_of[coset] = len(reps)
            reps.append(x)
    dim = len(reps)
    mats = []
    for g in range(group.order):
        mat = [[0] * dim for _ in range(dim)]
        for j, x in enumerate(reps):
            gx = group.table[g][x]
            coset = frozenset(group.table[gx][h] for h in sub.elements)
            mat[rep_of[coset]][j] = 1
        mats.append(mat)
    return mats, dim


def characters(group, m):
    """All homomorphisms G -> (Z/m)^*, found from generator assignments."""
    units = [u for u in range(1, m) if _gcd(u, m) == 1]
    gens = list(group.generating_set())
    tree = spanning_tree(group, gens)
    if tree is None:
        gens = [x for x in range(group.order) if x != group.identity]
        tree = spanning_tree(group, gens)
    out = []
    for assign in product(units, repeat=len(gens)):
        chi = [None] * group.order
        chi[group.identity] = 1
        pos = {s: i for i, s in enumerate(gens)}
        for x, s, xs in tree:
            chi[xs] = chi[x] * assign[pos[s]] % m
        if all(
            chi[group.table[a][b]] == chi[a] * chi[b] % m
            for a in range(group.order)
            for b in range(group.order)
        ):
            out.append(tuple(chi))
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _apply_row_op(mat, op, m):
    kind = op[0]
    if kind == "shear":
        _, i, j, c = op
        mat[i] = [(a + c * b) % m for a, b in zip(mat[i], mat[j])]
    elif kind == "swap":
        _, i, j = op
        mat[i], mat[j] = mat[j], mat[i]
    else:
        _, i, u = op
        mat[i] = [a * u % m for a in mat[i]]


def _invert_op(op, m, units):
    kind = op[0]
    if kind == "shear":
        _, i, j, c = op
        return ("shear", i, j, (-c) % m)
    if kind == "swap":
        return op
    _, i, u = op
    uinv = next(v for v in units if u * v % m == 1)
    return ("scale", i, uinv)


def _random_invertible(rng, r, m, steps=None):
    """(P, P_inv) over Z/m as a product of random elementary operations.

    P = E_k ... E_1, so the inverse is the reversed inverse ops applied to I.
    """
    if steps is None:
        steps = 3 * r + 2
    units = [u for u in range(1, m) if _gcd(u, m) == 1]
    ops = []
    for _ in range(steps):
        kind = rng.choice(("shear", "swap", "scale"))
        if kind == "shear" and r >= 2:
            i, j = rng.sample(range(r), 2)
            ops.append(("shear", i, j, rng.randrange(1, m)))
        elif kind == "swap" and r >= 2:
            i, j = rng.sample(range(r), 2)
            ops.append(("swap", i, j))
        else:
            ops.append(("scale", rng.randrange(r), rng.choice(units)))
    p = [[int(i == j) for j in range(r)] for i in range(r)]
    pinv = [[int(i == j) for j in range(r)] for i in range(r)]
    for op in ops:
        _apply_row_op(p, op, m)
    for op in reversed(ops):
        _apply_row_op(pinv, _invert_op(op, m, units), m)
    check = [[sum(p[i][k] * pinv[k][j] for k in range(r)) % m for j in range(r)]
             for i in range(r)]
    assert check == [[int(i == j) for j in range(r)] for i in range(r)]
    return p, pinv


def _conjugate(mats, p, pinv, m):
    r = len(p)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(r)) % m for j in range(r)]
                for i in range(r)]

    return [mul(mul(p, mat), pinv) for mat in mats]


def random_gmodule(group, rng, max_size=81):
    """A random exact G-module of size at most max_size."""
    subgroups = all_subgroups(group)
    while True:
        sub = rng.choice(subgroups)
        mats, dim = _coset_permutation(group, sub)
        moduli = [m for m in (2, 3, 4, 5, 7, 8, 9) if m ** dim <= max_size]
        if not moduli:
            continue
        m = rng.choice(moduli)
        chis = characters(group, m)
        chi = rng.choice(chis)
        twisted = [
            [[chi[g] * x % m for x in row] for row in mats[g]]
            for g in range(group.order)
        ]
        p, pinv = _random_invertible(rng, dim, m)
        action = _conjugate(twisted, p, pinv, m)
        return GModule(group, m, dim, action,
                       label=f"random coset module dim {dim} mod {m}")


def sweep_modules():
    """The seeded oracle sweep: eight random modules over each small group."""
    groups = [
        cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
        builtin_group("klein4"), cyclic_group(5), builtin_group("z6"),
        builtin_group("s3"),
    ]
    rng = random.Random(0x5ca1ab1e)
    return [(group, random_gmodule(group, rng, max_size=81))
            for group in groups for _ in range(8)]
