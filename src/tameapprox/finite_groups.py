"""Concrete finite groups as Cayley tables.

Groups here are small (a few hundred elements at most), so a full
multiplication table is the ground truth; it makes restriction maps and
module actions index-level exact, and element ordering deterministic so that
printed cocycles and JSON reports are reproducible.
"""

from __future__ import annotations

from math import lcm

DEFAULT_ORDER_LIMIT = 512


class Group:
    """Finite group on elements 0..n-1 given by its Cayley table.

    `table[a][b]` is the index of a*b.  Construction validates that rows and
    columns are permutations, that a two-sided identity exists, and that the
    operation is associative (Light's test over a generating set; a full
    triple scan is added for order <= 64).  Instances are immutable.
    """

    __slots__ = ("order", "table", "names", "identity", "_inverses",
                 "_orders", "_generators", "_cyclic_subgroups", "__weakref__")

    def __init__(self, table, names=None):
        rows = tuple(tuple(int(x) for x in row) for row in table)
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

        self.order = n
        self.table = rows
        self.names = names
        self.identity = identity
        self._inverses = None
        self._orders = None
        self._generators = None
        self._cyclic_subgroups = None

        gens = self.generating_set()
        for s in gens:  # Light's associativity test: s in the middle slot suffices
            for x in range(n):
                xs = rows[x][s]
                rx = rows[x]
                for y in range(n):
                    if rows[xs][y] != rx[rows[s][y]]:
                        raise ValueError(f"associativity fails at ({x}, {s}, {y})")
        if n <= 64:
            for x in range(n):
                for y in range(n):
                    xy = rows[x][y]
                    for z in range(n):
                        if rows[xy][z] != rows[x][rows[y][z]]:
                            raise ValueError(f"associativity fails at ({x}, {y}, {z})")

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
            gens = []
            closed = {self.identity}
            for x in range(self.order):
                if x not in closed:
                    gens.append(x)
                    closed = self._close(closed | {x})
                    if len(closed) == self.order:
                        break
            self._generators = tuple(gens)
        return self._generators

    def _close(self, seed):
        elements = set(seed) | {self.identity}
        frontier = list(elements)
        while frontier:
            new = []
            for a in frontier:
                for b in list(elements):
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in elements:
                            elements.add(c)
                            new.append(c)
            frontier = new
        return elements

    def is_abelian(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.table == other.table and self.identity == other.identity

    def __hash__(self):
        return hash((self.table, self.identity))

    def __repr__(self):
        return f"Group(order={self.order})"


class Subgroup:
    """A subgroup of a parent Group, stored as a sorted element index set."""

    __slots__ = ("parent", "elements", "_as_group", "_local_index")

    def __init__(self, parent, elements):
        elems = tuple(sorted({int(x) for x in elements}))
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
        self._as_group = None
        self._local_index = None

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def is_cyclic(self):
        g = self.parent
        return any(g.element_order(x) == self.order for x in self.elements)

    def local_index(self, parent_idx):
        if self._local_index is None:
            self._local_index = {x: i for i, x in enumerate(self.elements)}
        return self._local_index[parent_idx]

    def as_group(self):
        """This subgroup re-indexed as a standalone Group.

        Local element i corresponds to parent element `self.elements[i]`.
        """
        if self._as_group is None:
            idx = {x: i for i, x in enumerate(self.elements)}
            table = [
                [idx[self.parent.table[a][b]] for b in self.elements]
                for a in self.elements
            ]
            names = [self.parent.names[x] for x in self.elements]
            self._as_group = Group(table, names)
        return self._as_group

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.elements == other.elements and self.parent == other.parent

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order}, elements={self.elements})"


def subgroup_generated(group, gens):
    """Closure of `gens` (plus the identity) under the Cayley table."""
    closed = group._close(set(gens))
    return Subgroup(group, closed)


def full_subgroup(group):
    return Subgroup(group, range(group.order))


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
    gens = [tuple(int(x) for x in p) for p in gens]
    if not gens:
        raise ValueError("at least one generator permutation is required")
    degree = len(gens[0])
    for i, p in enumerate(gens):
        if len(p) != degree:
            raise ValueError(f"permutation {i} has degree {len(p)}, expected {degree}")
        if sorted(p) != list(range(degree)):
            raise ValueError(f"permutation {i} is not a permutation of 0..{degree - 1}")

    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        base = queue.pop(0)
        for p in gens:
            prod = tuple(p[base[i]] for i in range(degree))  # p after base
            if prod not in index:
                if len(elements) >= limit:
                    raise ValueError(f"group closure exceeds the order limit {limit}")
                index[prod] = len(elements)
                elements.append(prod)
                queue.append(prod)
    n = len(elements)
    table = [
        [index[tuple(b[a[i]] for i in range(degree))] for b in elements]
        for a in elements
    ]
    names = [_cycle_notation(p) for p in elements]
    return Group(table, names)


def cyclic_group(n):
    """Z/n with additive indexing: element k is k times the generator."""
    n = int(n)
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Group(table, [str(k) for k in range(n)])


def direct_product(*groups):
    """Direct product; element index packs coordinates big-endian.

    For G x H the element (a, b) has index a*|H| + b, and names "(na,nb)".
    """
    if not groups:
        raise ValueError("direct product of no groups")
    if len(groups) == 1:
        return groups[0]
    head, *rest = groups
    tail = direct_product(*rest)
    n1, n2 = head.order, tail.order
    n = n1 * n2

    def unpack(x):
        return divmod(x, n2)

    table = []
    for x in range(n):
        a1, b1 = unpack(x)
        row = []
        for y in range(n):
            a2, b2 = unpack(y)
            row.append(head.table[a1][a2] * n2 + tail.table[b1][b2])
        table.append(row)

    def merge_names(na, nb):
        nb_inner = nb[1:-1] if nb.startswith("(") and nb.endswith(")") else nb
        return f"({na},{nb_inner})"

    names = [merge_names(head.names[unpack(x)[0]], tail.names[unpack(x)[1]]) for x in range(n)]
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


def product_of_prime_powers(ell, n):
    """Z/ell^n x Z/ell, the Galois group of the certified extensions."""
    ell, n = int(ell), int(n)
    if ell < 2 or n < 1:
        raise ValueError("need ell >= 2 and n >= 1")
    return direct_product(cyclic_group(ell ** n), cyclic_group(ell))


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
        if ell < 2 or n < 1 or ell ** (n + 1) > limit:
            # guard before building the Cayley table: its size is order^2
            raise ValueError(
                f"group order {ell}^{n + 1} exceeds the limit {limit}")
        g = product_of_prime_powers(ell, n)
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
        return from_permutations(obj["permutations"], limit=limit)
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, list) or not table:
            raise ValueError("'table' must be a non-empty list of rows")
        if len(table) > limit:
            raise ValueError(f"group order {len(table)} exceeds the limit {limit}")
        return Group(table, obj.get("names"))
    raise ValueError("group JSON needs a 'permutations' or 'table' key")
