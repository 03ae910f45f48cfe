"""First group cohomology and Tate-Shafarevich restriction kernels.

H^1(H, M) is computed by one solver, `_subgroup_h1`, for each subgroup H
of G, G itself included (`h1` solves `full_subgroup(G)`), in G's element
indices: on the values x_i = z(g_i) of a cocycle at the generators of
`H.presentation()`, which determine it.  A solvable H (every builtin group
and every subgroup a certificate uses) is presented polycyclically: a
cocycle extends along the normal forms, and it is well defined exactly
when z(lhs) = z(rhs) for each relator lhs = rhs, where z(s_1 ... s_k) =
sum of s_1...s_(j-1).x_(s_j) (the Fox derivatives of the relator applied
to x; Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005, ch. 7-8).  That is one block of rank-many rows per relator.  A
cyclic <g> of order k has the single relator g^k = e, whose block is
N_g = 1 + g + ... + g^(k-1), so its H^1 is ker N_g / (g - 1)M (Neukirch,
Schmidt and Wingberg, Cohomology of Number Fields, Prop. 1.7.1) as a case
of the same solver.  A subgroup that is not solvable (only a JSON input
has one) is presented by its Cayley graph: the generators are its
generating set, and each Cayley edge off a BFS tree is a relator.
Z^1/B^1 is then ker A / im B inside (Z/m)^(d rank), A the relator
conditions and B the coboundaries of the generator values, and
`zmod_linalg.QuotientPresentation` presents it from one elimination of A; Tate
H^0 and the Sha kernels are quotients of the same form.  A class stays its
generator values; only the h1 printout and the tests expand one to all |G|
elements (`H1Result.cocycle`), and check it with `is_cocycle` or the
full-cochain d0, d1, which stay exported for them and the tracer.

The Sha kernels are computed from a finite model: all cyclic subgroups of
G stand in for the (infinitely many) unramified places, since every cyclic
subgroup is a Frobenius of infinitely many of them and conjugate
decomposition groups give canonically isomorphic H^1; ramified places
enter through explicit PlaceRecords.  `res_h1`, the one restriction
routine, maps a class of G to the class in H's H^1 of its values at H's
generators, read by walking G's tree from each back to the identity, so no
restricted module, standalone group or per-element table is built; the
kernels take their conditions from its rows.  Only the members of a family
that are maximal under inclusion are solved: for H <= K, res_H = res^K_H o
res_K (Neukirch, Schmidt and Wingberg, Cohomology of Number Fields, ch. I
§5), so a class that dies on K dies on H, and the joint kernel over the
family is the one over its maximal members.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .finite_groups import Group, Subgroup, cyclic_subgroups, full_subgroup
from .g_modules import GModule, _ideal_module, group_ring
from .primes import is_prime
from .zmod_linalg import AbGroupStructure, IntMatrix, QuotientPresentation

__all__ = [
    "H1Result", "PlaceRecord", "ShaResult", "LemmaReport", "ShiftReport",
    "h1", "tate_h0", "res_h1", "sha_cyc", "sha_sigma",
    "verify_augmentation_lemma", "dimension_shift_check",
    "coboundary0_matrix", "coboundary1_matrix", "is_cocycle",
]


def _differences(module, elements):
    """a -> (g.a - a for g in elements), as the rows of a (len(elements) r x r) matrix."""
    e = module.group.identity
    return [row for g in elements for row in module._matrix(((g, 1), (e, -1)))]


def coboundary0_matrix(group, module):
    """d0: M -> C^1, (d0 a)(g) = g.a - a, as an (nr x r) integer matrix."""
    rows = _differences(module, range(group.order))
    return IntMatrix(len(rows), module.rank, [x for row in rows for x in row])


def coboundary1_matrix(group, module):
    """d1: C^1 -> C^2, (d1 z)(g,h) = g.z(h) - z(gh) + z(g), as (n^2 r x nr).

    Cochains are flattened element-major: coordinate c of z(g) sits at
    g*r + c.  The pair (g,h) indexes block row g*n + h.
    """
    n, r = group.order, module.rank
    dim = n * r
    rows = []
    for g in range(n):
        act = module.act_matrix(g)
        for h in range(n):
            gh = group.table[g][h]
            for i in range(r):
                row = [0] * dim
                base_h = h * r
                for j in range(r):
                    row[base_h + j] += act[i][j]
                row[gh * r + i] -= 1
                row[g * r + i] += 1
                rows.append(row)
    return IntMatrix.from_rows(rows)


def is_cocycle(group, module, rep):
    """Check z(gh) = z(g) + g.z(h) mod m for a representative given per element.

    Only z(e) = 0 and the pairs (g, s) with s in the generating set S are
    tested; the verdict is that of the check on all pairs.  For fixed z the
    elements h with z(gh) = z(g) + g.z(h) for every g are closed under
    products: for two of them, h and k,
        z(ghk) = z(gh) + gh.z(k) = z(g) + g.(z(h) + h.z(k)) = z(g) + g.z(hk).
    G is finite, so s^-1 = s^(ord s - 1) and every element is a product of
    elements of S; the condition on S thus gives it on all of G.  The empty
    product e, the only element of the trivial group, satisfies it iff
    z(e) = 0.
    """
    m = module.modulus
    if any(x % m for x in rep[group.identity]):
        return False
    for s in group.generating_set():
        zs = rep[s]
        for g in range(group.order):
            lhs = rep[group.table[g][s]]
            gz = module.act(g, zs)
            if any((a - b - c) % m for a, b, c in zip(lhs, rep[g], gz)):
                return False
    return True


def _fox_system(group, module, pres):
    """Cocycle conditions on the values x = (z(g_i) for g_i in pres.generators).

    A relator lhs = rhs of positive words holds for z exactly when
    z(lhs) - z(rhs) = 0, with z(s_1 ... s_k) = sum over j of
    (s_1 ... s_(j-1)).x_(s_j): per relator, r rows whose block for g_i sums
    the actions of the prefixes in front of each letter g_i.  Returns the
    rows, as tuples of residues in [0, m); zero and repeated rows are
    dropped.
    """
    gens = pres.generators
    t, r, m = group.table, module.rank, module.modulus
    rows = {}  # distinct nonzero constraint rows, in the order found
    for lhs, rhs in pres.relators:
        coeffs = [{} for _ in gens]  # per generator: prefix element -> multiplicity
        for word, sign in ((lhs, 1), (rhs, -1)):
            prefix = group.identity
            for i in word:
                coeffs[i][prefix] = coeffs[i].get(prefix, 0) + sign
                prefix = t[prefix][gens[i]]
        blocks = [module._matrix(block.items()) for block in coeffs]
        for c in range(r):
            row = tuple([a % m for block in blocks for a in block[c]])
            if any(row):
                rows[row] = None
    return list(rows)


class H1Result(NamedTuple):
    """H^1(H, M) for a subgroup H of G = module.group, its classes given by
    their values at H's generators, in G's indices.

    `presentation` works on generator values: a vector lists z(s) for each s
    in `generators` (those of `H.presentation()`: the polycyclic generators
    of H, or its generating set if it is not solvable), in that order.  Its
    `generator_columns` generate the invariant factors
    `structure.invariant_factors`, in order.  `tree` lists the edges
    (g, i, g s_i) that build H's elements from the identity, so for a
    proper subgroup it reaches only those; `cocycle` expands a class along
    it, and `res_h1` walks G's back from H's generators.
    """

    group: Group
    module: GModule
    structure: AbGroupStructure
    presentation: QuotientPresentation
    generators: tuple
    tree: tuple

    @property
    def order(self):
        return self.structure.order

    def cocycle(self, values):
        """The cocycle with generator values `values`, one module vector per
        element of G, along the tree: z(g s_i) = z(g) + g.x_i, and None at
        the elements of G outside H (for printing and the tests; the engine
        never expands a class)."""
        module = self.module
        r, m = module.rank, module.modulus
        z = [None] * self.group.order
        z[self.group.identity] = (0,) * r
        for g, i, gs in self.tree:
            gx = module.act(g, values[i * r : (i + 1) * r])
            z[gs] = tuple((a + b) % m for a, b in zip(z[g], gx))
        return tuple(z)


def _subgroup_h1(module, sub):
    """H^1(H, M) as an H1Result, for any subgroup H of G = module.group.

    Everything is in the indices of G.  H^1 = Z^1/B^1 is ker A / im B
    (`QuotientPresentation`, one elimination): A is the relator conditions
    (`_fox_system`) on the values at the generators of `H.presentation()`,
    B is a -> (s.a - a)_s.  Each generator of the quotient is checked on
    the relator rows (A x = 0, which proves the class well defined).  A
    cocycle z of G restricts to the class with coordinates
    `presentation.coordinates([z(s) for s in generators])`.  Cached on the
    (immutable) module per element set of H.
    """
    if not isinstance(sub, Subgroup) or sub.parent != module.group:
        raise ValueError("subgroup belongs to a different group")
    cache = module._subgroup_h1_cache
    result = cache.get(sub.elements)
    if result is None:
        group = module.group
        pres = sub.presentation()
        quotient = QuotientPresentation(_fox_system(group, module, pres),
                                        _differences(module, pres.generators), module.modulus)
        if not all(quotient._in_kernel(col) for col in quotient.generator_columns):
            raise AssertionError("lifted representative is not a normalized cocycle")
        result = cache[sub.elements] = H1Result(
            group, module, quotient.structure, quotient, pres.generators, pres.tree)
    return result


def h1(group, module):
    """H^1(G, M) = Z^1/B^1, its classes given by their generator values:
    `_subgroup_h1` on the full subgroup, so the matrices have d rank
    columns instead of |G| rank.  No class is expanded to the elements of G."""
    if module.group != group:
        raise ValueError("module is over a different group")
    return _subgroup_h1(module, full_subgroup(group))


def tate_h0(group, module):
    """Tate H^0: fixed points M^G modulo the image of the norm N_G.

    M^G is the intersection of ker(s - 1) over the generators s, so this is
    ker A / im N_G with A the stacked s - 1 (`QuotientPresentation`).
    """
    if module.group != group:
        raise ValueError("module is over a different group")
    return QuotientPresentation(_differences(module, group.generating_set()),
                                module._matrix((g, 1) for g in range(group.order)),
                                module.modulus).structure


def res_h1(group, sub, module):
    """Matrix of H^1(G,M) -> H^1(H, M|_H) on invariant-factor coordinates.

    Row i / column j: coordinate i of the restriction of the j-th generator
    of `h1(group, module)`, reduced modulo the target factor of row i.  The
    target is H^1(H, M) as `_subgroup_h1` presents it, in G's indices; a
    class restricts to the class of its values z(s) at H's generators.
    """
    rows, _ = _restriction_rows(group, sub, module)
    cols = len(h1(group, module).structure.invariant_factors)
    return IntMatrix(len(rows), cols, [x for row in rows for x in row])


def _restriction_rows(group, sub, module):
    """(rows, target factors) of `res_h1`, from one read of `_subgroup_h1`.

    Each class x of G is read at each generator s of H as the sum of g.x_i
    over the tree edges (g, i, g s_i) on the path from s back to the
    identity.  Each edge is listed after the one that builds its g, so one
    backward pass over the tree meets the path.  It applies g to vectors,
    not to a matrix, so it walks `action_rows` itself instead of building
    dense blocks with `GModule._matrix`; a variant calling `GModule.act`
    per class was 1.5 to 4 times slower (58-87 ms became 129-275 ms over
    the 18 cyclic subgroups of zlxzln:2:8, 24-25 ms became 39-48 ms over
    the 128 of (Z/2)^7, on a 2-CPU container).
    """
    full = h1(group, module)
    cols = full.presentation.generator_columns
    act, r, m = module.action_rows, module.rank, module.modulus
    target = _subgroup_h1(module, sub)
    pres = target.presentation
    values = [[] for _ in cols]
    for s in target.generators:
        sums = [[0] * r for _ in cols]
        for g, i, gs in reversed(full.tree):
            if gs == s:
                base, s = i * r, g
                for acc, x in zip(sums, cols):
                    for c, row in enumerate(act[g]):
                        for j, a in row:
                            acc[c] += a * x[base + j]
        for vals, acc in zip(values, sums):
            vals += [v % m for v in acc]
    images = [pres.coordinates(vals) for vals in values]
    factors = pres.structure.invariant_factors
    return [[image[i] for image in images] for i in range(len(factors))], factors


class ShaResult(NamedTuple):
    """A restriction kernel inside H^1(G, M), with generating classes."""

    structure: AbGroupStructure
    generators: tuple  # per invariant factor, its values at h1(G, M).generators
    h1_structure: AbGroupStructure


def _restriction_kernel(group, module, subgroups):
    """Joint kernel in H^1(G,M) of restriction to each listed subgroup.

    Every member is checked to be a subgroup of G before anything is
    solved, even when H^1(G, M) = 0.  A member whose elements are a proper
    subset of another member's is dropped: it adds no condition, as
    res_H = res^K_H o res_K for H <= K.  Row i of `res_h1` on a kept member
    lives in Z/delta_i, delta_i the i-th factor of H^1(H, M); scaled by
    m / delta_i it is a row of A, a condition mod m.  The kernel is
    ker A / im B in the coordinates of H^1(G, M), B the diagonal of its
    factors (`QuotientPresentation`).
    """
    family = dict.fromkeys(subgroups)
    if any(sub.parent != group for sub in family):
        raise ValueError("subgroup belongs to a different group")
    h1_full = h1(group, module)
    factors = h1_full.structure.invariant_factors
    k = len(factors)
    m = module.modulus
    if k == 0:
        return ShaResult(AbGroupStructure(), (), h1_full.structure)

    family = sorted(family, key=lambda s: (s.order, s.elements))
    sets = [frozenset(s.elements) for s in family]
    family = [s for s, elems in zip(family, sets) if not any(elems < other for other in sets)]
    constraint_rows = []
    for sub in family:
        rows, deltas = _restriction_rows(group, sub, module)
        for row, delta in zip(rows, deltas):
            if m % delta:
                raise AssertionError("invariant factor does not divide the modulus")
            scale = m // delta
            constraint_rows.append([scale * x for x in row])
    relations = [[d if i == j else 0 for j in range(k)] for i, d in enumerate(factors)]
    pres = QuotientPresentation(constraint_rows, relations, m)

    entries = list(zip(*h1_full.presentation.generator_columns))  # per entry, over the classes
    gens = tuple(tuple(sum(map(mul, col, xs)) % m for xs in entries)
                 for col in pres.generator_columns)
    return ShaResult(pres.structure, gens, h1_full.structure)


def sha_cyc(group, module):
    """Kernel of H^1(G,M) -> prod over cyclic subgroups <g>: `sha_sigma`, no places."""
    return sha_sigma(group, module, ()).structure


class PlaceRecord(NamedTuple):
    """A labeled place with its decomposition subgroup in the ambient group.

    The label is a rational prime, the token "inf", or a free-form string for
    places of number fields other than Q.
    """

    label: object
    subgroup: Subgroup
    ramified: bool = False

    @property
    def key(self):
        return str(self.label)


def _is_place_token(key):
    """Whether `key` names a place in its one spelling: "inf", or a prime
    written as `str` writes it (no sign, padding or leading zero)."""
    if key == "inf":
        return True
    try:
        value = int(key)
    except ValueError:
        return False
    return str(value) == key and value >= 2 and is_prime(value)


def sha_sigma(group, module, places, excluded=()):
    """Sha^1_Sigma for the finite model: cyclic subgroups + ramified records.

    Computes the joint restriction kernel over every cyclic subgroup of G and
    over the decomposition subgroup of each place record whose label is not
    excluded.  With nothing excluded this is Sha^1(L/k, M); excluding every
    non-cyclic record gives Sha^1_cyc.  The `places` list must contain every
    ramified place of the extension being modeled.  Only the maximal
    members of that family are solved (`_restriction_kernel`): a kept
    record whose decomposition subgroup is all of G leaves G alone.
    """
    if module.group != group:
        raise ValueError("module is over a different group")
    known = {rec.key for rec in places}
    excluded_keys = set()
    for label in excluded:
        key = str(label)
        if key not in known and not _is_place_token(key):
            raise ValueError(f"unknown excluded place label {label!r}")
        excluded_keys.add(key)
    conditions = list(cyclic_subgroups(group))
    for rec in places:
        if rec.subgroup.parent != group:
            raise ValueError(f"place {rec.label!r}: decomposition subgroup of a different group")
        if rec.key not in excluded_keys:
            conditions.append(rec.subgroup)
    return _restriction_kernel(group, module, conditions)


class LemmaReport(NamedTuple):
    """sha_cyc(G, I) against the predicted Z/(n/e) for I over Z/nZ."""

    order: int
    exponent: int
    expected: AbGroupStructure
    computed: AbGroupStructure

    @property
    def passed(self):
        return self.expected == self.computed


def verify_augmentation_lemma(group):
    """Check Sha^1_cyc(G, I) == Z/(n/e) with I the augmentation ideal over Z/n."""
    n = group.order
    e = group.exponent()
    f = n // e
    ideal = _ideal_module(group, n)
    computed = sha_cyc(group, ideal)
    expected = AbGroupStructure([f] if f > 1 else [])
    return LemmaReport(order=n, exponent=e, expected=expected, computed=computed)


class ShiftReport(NamedTuple):
    """Dimension shift at one subgroup H: H^1(H, I|_H) and H^1(H, ring|_H)."""

    subgroup: Subgroup
    ideal_h1: AbGroupStructure
    ideal_expected: AbGroupStructure
    ring_h1: AbGroupStructure

    @property
    def passed(self):
        return self.ideal_h1 == self.ideal_expected and self.ring_h1.is_trivial


def _default_shift_subgroups(group):
    """The default family of `dimension_shift_check`: the cyclic subgroups,
    and G itself if it is not cyclic."""
    subgroups = cyclic_subgroups(group)
    if not any(s.order == group.order for s in subgroups):
        subgroups.append(full_subgroup(group))
    return subgroups


def dimension_shift_check(group, subgroups=None):
    """H^1(H, I|_H) = Z/|H| and H^1(H, (Z/n)[G]|_H) = 0, per subgroup.

    Defaults to the cyclic subgroups plus the full group; pass an explicit
    list (e.g. all_subgroups(G)) to widen the battery.  Each H^1 is that of
    `_subgroup_h1`, whichever kind of subgroup H is.  A subgroup listed
    twice is reported once.
    """
    n = group.order
    ideal = _ideal_module(group, n)
    ring = group_ring(group, n)
    if subgroups is None:
        subgroups = _default_shift_subgroups(group)
    reports = []
    for sub in sorted(dict.fromkeys(subgroups), key=lambda s: (s.order, s.elements)):
        ideal_h1 = _subgroup_h1(ideal, sub).structure
        ring_h1 = _subgroup_h1(ring, sub).structure
        expected = AbGroupStructure([sub.order] if sub.order > 1 else [])
        reports.append(ShiftReport(sub, ideal_h1, expected, ring_h1))
    return reports
