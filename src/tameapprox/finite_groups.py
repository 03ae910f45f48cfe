"""Concrete finite groups as Cayley tables.

Groups here are small (a few hundred elements at most), so a full
multiplication table is the ground truth; it makes restriction maps and
module actions index-level exact, and element ordering deterministic so that
printed cocycles and JSON reports are reproducible.  Each subgroup, G
itself included (`full_subgroup`), owns the one presentation the
cohomology layer solves on (`Subgroup.presentation`): the polycyclic one
read off the table if it is solvable, else the one read off its Cayley
graph (`_cayley_presentation`), either one a `PcPresentation` NamedTuple.
"""

from __future__ import annotations

from itertools import product
from math import lcm
from typing import NamedTuple

from .primes import _int, _ints

DEFAULT_ORDER_LIMIT = 512


class Group:
    """Finite group on elements 0..n-1 given by its Cayley table.

    `table[a][b]` is the index of a*b.  Construction validates that rows and
    columns are permutations, that a two-sided identity exists, and that the
    operation is associative, by Light's test: (xs)y = x(sy) for each
    generator s (Clifford and Preston, Algebraic Theory of Semigroups I,
    §1.2).  The a with (xa)y = x(ay) for all x, y include e and are closed
    under products: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
    `generating_set` reaches every element as such a product.  Instances
    are immutable.
    """

    __slots__ = ("order", "table", "names", "identity", "_inverses",
                 "_orders", "_generators", "_cyclic_subgroups", "_full")

    def __init__(self, table, names=None):
        rows = tuple(_ints(row, lambda k: f"an entry of table row {i}")
                     for i, row in enumerate(table))
        n = len(rows)
        if n == 0:
            raise ValueError("empty Cayley table")
        full = set(range(n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"table row {i} has {len(row)} entries, expected {n}")
            if set(row) != full:
                raise ValueError(f"table row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {rows[i][j] for i in range(n)} != full:
                raise ValueError(f"table column {j} is not a permutation of 0..{n - 1}")

        identity = None
        for e in range(n):
            if all(rows[e][x] == x for x in range(n)) and all(rows[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no two-sided identity element")

        if names is None:
            names = tuple(f"g{i}" for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValueError(f"{len(names)} names for {n} elements")
            if len(set(names)) != n:
                raise ValueError("element names are not distinct")

        self.order = n
        self.table = rows
        self.names = names
        self.identity = identity
        self._inverses = None
        self._orders = None
        self._generators = None
        self._cyclic_subgroups = None
        self._full = None

        gens = self.generating_set()
        for s in gens:  # Light's associativity test: s in the middle slot suffices
            for x in range(n):
                xs = rows[x][s]
                rx = rows[x]
                for y in range(n):
                    if rows[xs][y] != rx[rows[s][y]]:
                        raise ValueError(f"associativity fails at ({x}, {s}, {y})")

    def inverse(self, a):
        if self._inverses is None:
            e = self.identity
            inv = [0] * self.order
            for x in range(self.order):
                inv[x] = self.table[x].index(e)
            self._inverses = tuple(inv)
        return self._inverses[a]

    def element_order(self, a):
        if self._orders is None:
            orders = []
            e = self.identity
            for x in range(self.order):
                k, acc = 1, x
                while acc != e:
                    acc = self.table[acc][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[a]

    def exponent(self):
        """Least common multiple of the element orders."""
        return lcm(*(self.element_order(x) for x in range(self.order)))

    def generating_set(self):
        """A small generating set, found greedily in element order (deterministic)."""
        if self._generators is None:
            self._generators = _greedy_generators(self, range(self.order))
        return self._generators

    def _close(self, seed):
        """The subgroup generated by `seed`: in a finite group, the products of its elements."""
        seed = list(seed)
        elements = {self.identity}
        queue = [self.identity]
        for a in queue:  # the queue grows while it is walked
            row = self.table[a]
            for s in seed:
                c = row[s]
                if c not in elements:
                    elements.add(c)
                    queue.append(c)
        return elements

    def _derived(self, gens):
        """(generators, elements) of [H, H] for H = <gens>.

        [H, H] is the normal closure in H of the commutators of generators,
        and a subgroup closed under conjugation by each generator of H is
        normal in H, so each new generator's conjugates by `gens` are added
        until nothing new appears.
        """
        t, inv = self.table, self.inverse
        pending = [t[t[inv(a)][inv(b)]][t[a][b]] for a in gens for b in gens]
        dgens, elements = [], {self.identity}
        while pending:
            x = pending.pop()
            if x not in elements:
                dgens.append(x)
                elements = self._close(dgens)
                pending += [t[t[inv(s)][x]][s] for s in gens]
        return dgens, elements

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self is other or (self.table == other.table and self.identity == other.identity)

    def __hash__(self):
        return hash((self.table, self.identity))

    def __repr__(self):
        return f"Group(order={self.order})"


class PcPresentation(NamedTuple):
    """A polycyclic presentation of a solvable group, checked against its table.

    `generators` g_1..g_d (element indices) with `relative_orders` r_i: the
    subgroups N_i = <g_i, ..., g_d> form a chain, each normal in the one
    above, with N_i / N_(i+1) cyclic of order r_i, so every element is
    exactly one normal form g_1^e_1 ... g_d^e_d with 0 <= e_i < r_i.  The
    relators are pairs (lhs, rhs) of positive words (tuples of generator
    positions): g_i^r_i = w_ii and, for j > i, g_j g_i = g_i w_ij, with w_ii
    and w_ij = g_i^-1 g_j g_i the normal forms of elements of N_(i+1).
    These relators present the group: collecting with them rewrites any word
    to a normal form, so the group they define has at most prod r_i
    elements, and the table satisfies them with exactly that many (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, ch. 8).
    `tree` lists the edges (g, i, g g_i) that build every normal form from
    the identity.  `_cayley_presentation` fills the same fields for a group
    that is not solvable, with `relative_orders` None; `Subgroup.presentation`
    returns one or the other.
    """

    generators: tuple
    relative_orders: tuple | None
    relators: tuple
    tree: tuple


def _greedy_generators(group, elements):
    """Generators of the subgroup on `elements` (ascending): each element not
    yet generated is added, until the closure is all of them."""
    gens, closed, size = [], {group.identity}, len(elements)
    for x in elements:
        if x not in closed:
            gens.append(x)
            closed = group._close(gens)
            if len(closed) == size:
                break
    return tuple(gens)


def _polycyclic_presentation(group, gens, elements):
    """The PcPresentation of the subgroup H = <gens> on `elements`, in the
    indices of `group`, from its derived series; None if H is not solvable.

    Each abelian factor K / [K, K] of the series is split into cyclic
    steps: from S = [K, K] up, take the element of largest order modulo S
    (lowest index on ties) and grow S by it; any S between [K, K] and K is
    normal in K.  The steps of a layer are listed from the top down.  Every
    choice depends only on the order of the indices, so the presentation of
    a subgroup is that of its standalone `Subgroup.as_group()`, re-indexed.
    """
    t, e = group.table, group.identity
    elements = set(elements)
    size = len(elements)
    pcgs, orders = [], []
    while len(elements) > 1:
        dgens, below = group._derived(gens)
        if len(below) == len(elements):
            return None  # a perfect subgroup: the series stops above 1
        steps, sub = [], set(below)
        while len(sub) < len(elements):
            best, seen = None, set(sub)
            for x in sorted(elements - seen):
                if x in seen:
                    continue
                seen.update(t[x][y] for y in sub)  # the coset x S shares the order
                k, acc = 1, x
                while acc not in sub:
                    acc = t[acc][x]
                    k += 1
                if best is None or k > best[1]:
                    best = (x, k)
            x, k = best
            grown, power = set(sub), x
            for _ in range(k - 1):
                grown.update(t[y][power] for y in sub)
                power = t[power][x]
            sub = grown
            steps.append(best)
        for x, k in reversed(steps):
            pcgs.append(x)
            orders.append(k)
        gens, elements = dgens, below

    # the prod r_i = |H| normal forms, by right multiplication
    d = len(pcgs)
    exps = [None] * group.order
    exps[e] = (0,) * d
    level, tree = [e], []
    for i, (g, r) in enumerate(zip(pcgs, orders)):
        grown = []
        for acc in level:
            grown.append(acc)
            for _ in range(r - 1):
                nxt = t[acc][g]
                exps[nxt] = exps[acc][:i] + (exps[acc][i] + 1,) + exps[acc][i + 1:]
                tree.append((acc, i, nxt))
                grown.append(nxt)
                acc = nxt
        level = grown
    if len(set(level)) != size:
        raise AssertionError("the normal forms of the polycyclic presentation"
                             " are not |H| distinct elements")

    def word(x):
        return tuple(i for i, c in enumerate(exps[x]) for _ in range(c))

    relators = []
    for i, (g, r) in enumerate(zip(pcgs, orders)):
        power = e
        for _ in range(r):
            power = t[power][g]
        relators.append(((i,) * r, word(power)))
    for i, g in enumerate(pcgs):
        for j in range(i + 1, d):
            conj = t[t[group.inverse(g)][pcgs[j]]][g]
            relators.append(((j, i), (i,) + word(conj)))
    return PcPresentation(tuple(pcgs), tuple(orders), tuple(relators), tuple(tree))


def _cayley_presentation(group, gens):
    """A presentation of H = <gens> from its Cayley graph, for any H.

    A BFS from the identity, by right multiplication with `gens`, writes
    each element of H as the word of its tree path; each edge (g, i, g s_i)
    that reaches an element already seen gives the relator
    word(g) s_i = word(g s_i).  The tree and these relators present H (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    Returned as a PcPresentation whose `relative_orders` is None: the words
    are tree paths, not normal forms of a polycyclic series.
    """
    t = group.table
    word = {group.identity: ()}
    relators, tree = [], []
    queue = [group.identity]
    for g in queue:  # the queue grows while it is walked
        for i, s in enumerate(gens):
            gs = t[g][s]
            if gs in word:
                relators.append((word[g] + (i,), word[gs]))
            else:
                word[gs] = word[g] + (i,)
                tree.append((g, i, gs))
                queue.append(gs)
    return PcPresentation(tuple(gens), None, tuple(relators), tuple(tree))


class Subgroup:
    """A subgroup of a parent Group, stored as a sorted element index set.

    Only `presentation()`, which every solve over the subgroup reads, is
    cached; `generating_set()` and `as_group()` are built on each call.
    """

    __slots__ = ("parent", "elements", "_presentation")

    def __init__(self, parent, elements):
        elems = tuple(sorted(set(_ints(elements, lambda k: "subgroup element"))))
        for x in elems:
            if not 0 <= x < parent.order:
                raise ValueError(f"element index {x} out of range for group of order {parent.order}")
        if parent.identity not in elems:
            raise ValueError("subgroup must contain the identity")
        eset = set(elems)
        for a in elems:
            for b in elems:
                if parent.table[a][b] not in eset:
                    raise ValueError(
                        f"element set is not closed: {a}*{b} escapes"
                    )
        self.parent = parent
        self.elements = elems
        self._presentation = None

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def is_cyclic(self):
        g = self.parent
        return any(g.element_order(x) == self.order for x in self.elements)

    def generating_set(self):
        """Generators in the parent's indices, chosen as `Group.generating_set`
        chooses them among this subgroup's elements."""
        return _greedy_generators(self.parent, self.elements)

    def presentation(self):
        """This subgroup's presentation in the parent's indices, on
        `generating_set()`: the polycyclic one if it is solvable, else the
        one read off its Cayley graph (`relative_orders` None).

        Each is the image of that of `full_subgroup(as_group())` under
        `elements`, but no standalone Group is built for it.  Cached.
        """
        if self._presentation is None:
            gens = self.generating_set()
            self._presentation = (_polycyclic_presentation(self.parent, gens, self.elements)
                                  or _cayley_presentation(self.parent, gens))
        return self._presentation

    def as_group(self):
        """This subgroup re-indexed as a standalone Group.

        Local element i corresponds to parent element `self.elements[i]`.
        """
        idx = {x: i for i, x in enumerate(self.elements)}
        table = [[idx[self.parent.table[a][b]] for b in self.elements] for a in self.elements]
        return Group(table, [self.parent.names[x] for x in self.elements])

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.elements == other.elements and self.parent == other.parent

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order}, elements={self.elements})"


def subgroup_generated(group, gens):
    """Closure of `gens` (plus the identity) under the Cayley table.

    Every generator must be an int in range(group.order); anything else is
    a ValueError, so that a bad index never reaches the table.
    """
    gens = list(gens)
    for g in gens:
        if not 0 <= _int(g, "subgroup generator") < group.order:
            raise ValueError(
                f"subgroup generator {g!r} is not an element index in 0..{group.order - 1}")
    closed = group._close(set(gens))
    return Subgroup(group, closed)


def full_subgroup(group):
    """G as a Subgroup of itself, built once per Group."""
    if group._full is None:
        group._full = Subgroup(group, range(group.order))
    return group._full


def trivial_subgroup(group):
    return Subgroup(group, [group.identity])


def cyclic_subgroups(group):
    """The distinct subgroups <g> for g in the group.

    Deduplicated as element sets and ordered by (order, element tuple).
    Cached on the group so repeated kernel computations share the Subgroup
    objects (and their re-indexed standalone groups).
    """
    if group._cyclic_subgroups is None:
        seen = {}
        e = group.identity
        for g in range(group.order):
            elems = [e]
            acc = g
            while acc != e:
                elems.append(acc)
                acc = group.table[acc][g]
            key = tuple(sorted(elems))
            if key not in seen:
                seen[key] = Subgroup(group, key)
        group._cyclic_subgroups = sorted(
            seen.values(), key=lambda h: (h.order, h.elements))
    return list(group._cyclic_subgroups)


def all_subgroups(group):
    """Every subgroup, by breadth-first growth of generated subgroups.

    Exponential in the worst case; intended for the small groups the
    verification batteries run on (order a few dozen at most).
    """
    seen = {trivial_subgroup(group).elements}
    frontier = list(seen)
    while frontier:
        new = []
        for elems in frontier:
            for x in range(group.order):
                if x not in elems:
                    closure = tuple(sorted(group._close(set(elems) | {x})))
                    if closure not in seen:
                        seen.add(closure)
                        new.append(closure)
        frontier = new
    return sorted((Subgroup(group, e) for e in seen), key=lambda h: (h.order, h.elements))


def _cycle_notation(perm):
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "e"


def from_permutations(gens, *, limit=DEFAULT_ORDER_LIMIT):
    """Group generated by permutations of a common degree.

    Elements are enumerated breadth-first from the identity with the
    generators applied in input order, so element indexing is deterministic.
    """
    gens = [tuple(p) for p in gens]
    if not gens:
        raise ValueError("at least one generator permutation is required")
    degree = len(gens[0])
    for i, p in enumerate(gens):
        if len(p) != degree:
            raise ValueError(f"permutation {i} has degree {len(p)}, expected {degree}")
        if sorted(_ints(p, lambda k: f"an entry of permutation {i}")) != list(range(degree)):
            raise ValueError(f"permutation {i} is not a permutation of 0..{degree - 1}")

    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    for base in elements:  # the list grows while it is walked
        for p in gens:
            prod = tuple(p[base[i]] for i in range(degree))  # p after base
            if prod not in index:
                if len(elements) >= limit:
                    raise ValueError(f"group closure exceeds the order limit {limit}")
                index[prod] = len(elements)
                elements.append(prod)
    n = len(elements)
    table = [
        [index[tuple(b[a[i]] for i in range(degree))] for b in elements]
        for a in elements
    ]
    names = [_cycle_notation(p) for p in elements]
    return Group(table, names)


def cyclic_group(n):
    """Z/n with additive indexing: element k is k times the generator."""
    if _int(n, "cyclic group order") < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Group(table, [str(k) for k in range(n)])


def direct_product(*groups):
    """Direct product; element index packs coordinates big-endian.

    For G x H the element (a, b) has index a*|H| + b, and names "(na,nb)";
    each factor's names are kept as they are, so a nested product reads
    "(na,(nb,nc))".
    """
    if not groups:
        raise ValueError("direct product of no groups")
    if len(groups) == 1:
        return groups[0]
    table = [[0]]
    for g in groups:  # (x, a) has index x*|g| + a
        m = g.order
        table = [[t * m + c for t in row for c in g.table[a]] for row in table for a in range(m)]
    names = ["(" + ",".join(parts) + ")" for parts in product(*(g.names for g in groups))]
    return Group(table, names)


def quaternion_group():
    """Q8 = {+-1, +-i, +-j, +-k} with the usual quaternion multiplication."""
    units = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    axis_mul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    index = {u: i for i, u in enumerate(units)}
    table = []
    for s1, a1 in units:
        row = []
        for s2, a2 in units:
            s3, a3 = axis_mul[(a1, a2)]
            row.append(index[(s1 * s2 * s3, a3)])
        table.append(row)
    names = [("" if s == 1 else "-") + a for s, a in units]
    return Group(table, names)


_PRIME_POWER_PRODUCTS = {}  # (ell, n) -> the one Group of product_of_prime_powers


def product_of_prime_powers(ell, n, *, limit=DEFAULT_ORDER_LIMIT):
    """Z/ell^n x Z/ell, the Galois group of the certified extensions.

    One Group per (ell, n) per process.  The arguments and the order
    ell^(n+1) against `limit` are checked on every call, before the lookup;
    only the first call builds the Cayley table, quadratic in the order.
    """
    ell, n = _int(ell, "ell"), _int(n, "n")
    if ell < 2 or n < 1:
        raise ValueError("need ell >= 2 and n >= 1")
    if ell ** (n + 1) > limit:
        raise ValueError(f"group order {ell}^{n + 1} exceeds the limit {limit}")
    if (ell, n) not in _PRIME_POWER_PRODUCTS:
        _PRIME_POWER_PRODUCTS[ell, n] = direct_product(cyclic_group(ell ** n), cyclic_group(ell))
    return _PRIME_POWER_PRODUCTS[ell, n]


def builtin_group(name, *, limit=DEFAULT_ORDER_LIMIT):
    """Resolve a builtin group name as accepted by the CLI.

    Recognized: z2, z3, z4, z5, z6, z8, klein4, z2xz4, z3xz3, z2xz2xz2, s3,
    q8, and the parametrized family "zlxzln:<ell>:<n>".
    """
    key = name.lower()
    simple = {
        "z2": lambda: cyclic_group(2),
        "z3": lambda: cyclic_group(3),
        "z4": lambda: cyclic_group(4),
        "z5": lambda: cyclic_group(5),
        "z6": lambda: cyclic_group(6),
        "z8": lambda: cyclic_group(8),
        "klein4": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        "z2xz4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
        "z3xz3": lambda: direct_product(cyclic_group(3), cyclic_group(3)),
        "z2xz2xz2": lambda: direct_product(cyclic_group(2), cyclic_group(2), cyclic_group(2)),
        "s3": lambda: from_permutations([(1, 2, 0), (1, 0, 2)]),
        "q8": quaternion_group,
    }
    if key in simple:
        g = simple[key]()
    elif key.startswith("zlxzln:"):
        parts = key.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected zlxzln:<ell>:<n>, got {name!r}")
        try:
            ell, n = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"non-integer parameters in {name!r}") from None
        if ell < 2:
            raise ValueError(f"ell must be >= 2 in {name!r}, got {ell}")
        if n < 1:
            raise ValueError(f"n must be >= 1 in {name!r}, got {n}")
        g = product_of_prime_powers(ell, n, limit=limit)
    else:
        raise ValueError(f"unknown builtin group {name!r}")
    if g.order > limit:
        raise ValueError(f"group order {g.order} exceeds the limit {limit}")
    return g


def group_from_json(obj, *, limit=DEFAULT_ORDER_LIMIT):
    """Load a group from its JSON object form.

    Accepts {"permutations": [[...], ...]} or {"table": [[...], ...],
    "names": [...]}; validation errors name the offending row or column.
    """
    if not isinstance(obj, dict):
        raise ValueError("group JSON must be an object")
    if "permutations" in obj:
        return from_permutations(_int_rows(obj["permutations"], "'permutations'"), limit=limit)
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, list) or not table:
            raise ValueError("'table' must be a non-empty list of rows")
        if len(table) > limit:
            raise ValueError(f"group order {len(table)} exceeds the limit {limit}")
        names = obj.get("names")
        if names is not None and not (
                isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise ValueError("'names' must be a list of strings")
        return Group(_int_rows(table, "'table'"), names)
    raise ValueError("group JSON needs a 'permutations' or 'table' key")


def _int_rows(value, what):
    """`value` if it is a list of lists of integers, else a ValueError naming `what`.

    Guards the JSON loaders, so that a wrong type inside the input is an
    input error and not a TypeError from the code that reads it.
    """
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise ValueError(f"{what} row {i} is not a list of integers")
    return value
