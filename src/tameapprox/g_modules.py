"""Finite G-modules over Z/mZ, with the action stored as sparse rows.

The central objects are the group ring (Z/m)[G], its augmentation ideal I
with basis {g - 1 : g != e}, restrictions to subgroups, and the unit-twisted
dual.  A module is always free as a Z/m-module, (Z/m)^r; only the G-action
varies.  The engine reads I alone, from `_ideal_module`; `augmentation_ideal`
adds and checks the maps of 0 -> I -> (Z/m)[G] -> Z/m -> 0.

Row format: `module.action_rows[g]` is the r x r matrix of g as a tuple of
r rows, and row i is a tuple of the (column, residue) pairs of its nonzero
entries, ascending in column, with residues in [1, m).  The form is
canonical, so two matrices are equal exactly when their rows compare equal
with ==, and rows are shared between elements where they coincide.  The
group ring stores one entry per row (a permutation), the augmentation ideal
at most 2r per element, and the engine reads these rows only, so its work
per element is the number of nonzeros, not r^2.  `GModule._matrix` is the
one place dense rows are built, for a group-ring element sum k g acting on
M; `GModule.act_matrix(g)` and the `GModule.action` view read through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import mul

from .finite_groups import Subgroup, _int_rows
from .zmod_linalg import IntMatrix


def _sparse(mat, m):
    """The rows of a dense integer matrix in canonical sparse form mod m."""
    return tuple(tuple((j, v) for j, x in enumerate(row) if (v := int(x) % m))
                 for row in mat)


def _row_times(row, mat, m):
    """The row vector `row` times the matrix `mat`, both sparse, mod m."""
    if len(row) == 1 and row[0][1] == 1:
        return mat[row[0][0]]
    acc = {}
    for j, a in row:
        for k, b in mat[j]:
            acc[k] = acc.get(k, 0) + a * b
    return tuple((k, v) for k in sorted(acc) if (v := acc[k] % m))


def _mul(a, b, m):
    """a @ b mod m on sparse rows: about the nonzeros of a times those of a
    row of b, so O(r) for a permutation, not r^3."""
    return tuple(_row_times(row, b, m) for row in a)


def _unit_rows(r):
    """Row i of the identity, ((i, 1),), for each i < r."""
    return tuple(((i, 1),) for i in range(r))


def _sizes(modulus, rank):
    """(m, r) as ints, checked: every builder runs this on user input."""
    m = int(modulus)
    if m < 2:
        raise ValueError("modulus must be >= 2")
    r = int(rank)
    if r < 0:
        raise ValueError("rank must be >= 0")
    return m, r


class GModule:
    """(Z/m)^r with a G-action given per group element as sparse rows.

    `action_rows[g]` holds the matrix of g in the row format of the module
    docstring.  Construction verifies that the action is a genuine
    homomorphism G -> GL_r(Z/m): the identity acts trivially and
    action(s)action(h) = action(sh) for every generator s and element h,
    as sparse products compared row by row.  That suffices: every g is a
    word s_1...s_k in the generators, and induction on k gives
    action(g)action(h) = action(s_1)action(s_2...s_k h) = action(gh).
    Invertibility follows: action(g) action(g^{-1}) = 1.

    `GModule(group, m, r, matrices)` takes dense matrices and runs the
    check: the one constructor for outside input.  `_from_validated` skips
    it for rows whose construction proves them a homomorphism
    (`trivial_module`, `group_ring`, `_ideal_module`, `restrict`).
    """

    __slots__ = ("group", "modulus", "rank", "action_rows", "label", "_subgroup_h1_cache")

    def __init__(self, group, modulus, rank, action, label=None):
        m, r = _sizes(modulus, rank)
        if len(action) != group.order:
            raise ValueError(f"{len(action)} action matrices for a group of order {group.order}")
        rows = []
        for g, mat in enumerate(action):
            if len(mat) != r or any(len(row) != r for row in mat):
                raise ValueError(f"action matrix for element {g} is not {r}x{r}")
            rows.append(_sparse(mat, m))
        self._check_and_set(group, m, r, tuple(rows), label)

    @classmethod
    def _from_validated(cls, group, modulus, rank, rows, label):
        """A module over `rows`, a tuple of canonical sparse rows that its
        builder proves a homomorphism from `group`; nothing is checked or copied."""
        module = cls.__new__(cls)
        module._set(group, modulus, rank, rows, label)
        return module

    def _check_and_set(self, group, m, r, rows, label):
        """Check that `rows` (canonical: `_sparse`'s output) is a homomorphism, then set it."""
        if rows[group.identity] != _unit_rows(r):
            raise ValueError("identity element must act as the identity matrix")
        for s in group.generating_set():
            act, table = rows[s], group.table[s]
            for h in range(group.order):
                if _mul(act, rows[h], m) != rows[table[h]]:
                    raise ValueError(
                        f"action is not a homomorphism: action({s})*action({h}) != action({s}*{h})"
                    )
        self._set(group, m, r, rows, label)

    def _set(self, group, modulus, rank, rows, label):
        self.group = group
        self.modulus = modulus
        self.rank = rank
        self.action_rows = rows
        self.label = label or f"module of rank {rank} over Z/{modulus}"
        self._subgroup_h1_cache = {}

    def _matrix(self, terms):
        """The group-ring element sum k g over the pairs (g, k) of `terms`,
        acting on M, as the dense rows of an r x r integer matrix, not
        reduced mod m."""
        out = [[0] * self.rank for _ in range(self.rank)]
        for g, k in terms:
            for row, arow in zip(out, self.action_rows[g]):
                for j, a in arow:
                    row[j] += k * a
        return out

    def act_matrix(self, g):
        """The dense r x r matrix of g, with residues in [0, m)."""
        return tuple(map(tuple, self._matrix(((g, 1),))))

    @property
    def action(self):
        """Dense view: `action[g]` is `act_matrix(g)`, built when read."""
        return _DenseAction(self)

    def act(self, g, vec):
        m = self.modulus
        return tuple(sum(a * vec[j] for j, a in row) % m for row in self.action_rows[g])

    @property
    def size(self):
        return self.modulus ** self.rank

    def __repr__(self):
        return f"GModule({self.label}, |G|={self.group.order})"


class _DenseAction(Sequence):
    """The dense matrices of a module, one per element, built on each read."""

    __slots__ = ("_module",)

    def __init__(self, module):
        self._module = module

    def __len__(self):
        return len(self._module.action_rows)

    def __getitem__(self, g):
        return self._module.act_matrix(g)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)


class ModuleMap:
    """A G-equivariant linear map between modules over the same Z/m.

    Commutation is checked on `group.generating_set()` only, as sparse
    products of the actions with the map's rows.  That suffices:
    if f commutes with action(s) and action(t), it commutes with
    action(st) = action(s)action(t), hence with every product of generators.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if source.modulus != target.modulus:
            raise ValueError("source and target moduli differ")
        if source.group != target.group:
            raise ValueError("source and target groups differ")
        if matrix.rows != target.rank or matrix.cols != source.rank:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {target.rank}x{source.rank}"
            )
        m = source.modulus
        mat = matrix.mod(m)
        f = _sparse(mat._data, m)
        for g in source.group.generating_set():
            if _mul(target.action_rows[g], f, m) != _mul(f, source.action_rows[g], m):
                raise ValueError(f"map does not commute with the action of element {g}")
        self.source = source
        self.target = target
        self.matrix = mat

    def apply(self, vec):
        m = self.target.modulus
        return tuple(x % m for x in self.matrix.mul_vector(vec))


# Keyed by (group, modulus); a Group hashes by its table, so an equal group
# built later hits.  Entries live for the process.
_RING_CACHE = {}
_IDEAL_CACHE = {}


def trivial_module(group, modulus, rank=1):
    """(Z/m)^r, every element acting by the unit rows: a homomorphism by
    construction, so not checked again."""
    m, r = _sizes(modulus, rank)
    return GModule._from_validated(group, m, r, (_unit_rows(r),) * group.order,
                                   f"trivial Z/{modulus}" + (f"^{rank}" if rank != 1 else ""))


def group_ring(group, modulus):
    """(Z/m)[G]: basis indexed by group elements, g acting by left translation.

    Cached per (group, modulus) for the life of the process: modules are
    immutable, and reuse lets the cohomology layer share H^1 results across
    verification passes and across equal groups built afresh.  g sends
    basis vector h to gh, so row k of its matrix is the unit row of
    g^-1 k: one entry per row, read off the Cayley table.  Not checked
    again: g.(h.e_k) = e_((gh)k) = (gh).e_k is associativity, which `Group`
    has proved.
    """
    key = (group, modulus)
    if key in _RING_CACHE:
        return _RING_CACHE[key]
    m, n = _sizes(modulus, group.order)
    unit = _unit_rows(n)
    rows = tuple(tuple(unit[x] for x in group.table[group.inverse(g)]) for g in range(n))
    ring = GModule._from_validated(group, m, n, rows, f"(Z/{modulus})[G]")
    _RING_CACHE[key] = ring
    return ring


def _ideal_module(group, modulus):
    """The augmentation ideal I of (Z/m)[G] with basis {g - 1 : g != e}, the
    module alone: what the engine reads.  Cached per (group, modulus) for
    the life of the process, like the group ring.

    From g(h - 1) = (gh - 1) - (g - 1): for g != e, row gh of g's matrix
    is the unit row of h for each h != g^-1, and row g is -1 in every
    column, one row shared by all elements; 2r - 1 entries per element.
    Not checked again: this is the ring's action on I = ker aug, a
    G-invariant submodule, in the basis g - 1.  `augmentation_ideal`
    cross-checks these rows against the ring's.
    """
    key = (group, modulus)
    if key in _IDEAL_CACHE:
        return _IDEAL_CACHE[key]
    n = group.order
    m, r = _sizes(modulus, n - 1)
    e = group.identity
    basis = [g for g in range(n) if g != e]  # basis vector i is (basis[i] - 1)
    pos = {g: i for i, g in enumerate(basis)}

    unit = _unit_rows(r)
    minus = tuple((i, m - 1) for i in range(r))
    rows = []
    for g in range(n):
        mat = [minus] * r  # every row but that of g is overwritten (none for g = e)
        for i, h in enumerate(basis):
            gh = group.table[g][h]
            if gh != e:
                mat[pos[gh]] = unit[i]
        rows.append(tuple(mat))
    ideal = GModule._from_validated(group, m, r, tuple(rows),
                                    f"augmentation ideal of (Z/{modulus})[G]")
    _IDEAL_CACHE[key] = ideal
    return ideal


def augmentation_ideal(group, modulus):
    """(I, incl, aug): the ideal of `_ideal_module`, its basis inclusion
    incl: I -> (Z/m)[G] and the all-ones augmentation aug: (Z/m)[G] -> Z/m.
    Only I is cached: every call builds both maps, checks them on the
    generators and checks that the sequence is exact.
    """
    ideal = _ideal_module(group, modulus)
    n, e, ring = group.order, group.identity, group_ring(group, modulus)
    basis = [g for g in range(n) if g != e]
    incl = ModuleMap(ideal, ring, IntMatrix(n, n - 1, [(x == h) - (x == e)
                                                      for x in range(n) for h in basis]))
    aug = ModuleMap(ring, trivial_module(group, modulus), IntMatrix(1, n, [1] * n))
    _check_augmentation_exactness(incl.matrix, aug.matrix, basis, ideal.modulus)
    return ideal, incl, aug


def _check_augmentation_exactness(incl, aug, basis, m):
    """Raise AssertionError unless 0 -> I -> (Z/m)[G] -> Z/m -> 0 is exact.

    `incl` is the n x r inclusion matrix, `aug` the 1 x n augmentation and
    `basis[i]` the ring coordinate of ideal basis vector i.  In O(n r):
    the rows of `incl` at `basis` are the identity, so incl is injective
    over any Z/m and |im incl| = m^r; aug o incl = 0, so im incl lies in
    ker aug; aug has a unit entry, so it is onto and |ker aug| = m^(n-1),
    which is m^r when r = n - 1.  The image then is the whole kernel.
    """
    n, r = incl.rows, incl.cols
    rows = incl.mod(m)._data
    if len(basis) != r or any(row[i] != 1 or any(row[:i]) or any(row[i + 1:])
                              for i, row in enumerate(rows[h] for h in basis)):
        raise AssertionError("augmentation ideal inclusion is not the identity on its basis")
    weights = aug._data[0]
    if any(sum(map(mul, weights, column)) % m for column in zip(*rows)):
        raise AssertionError("aug o incl is nonzero")
    if r != n - 1 or not any(gcd(w, m) == 1 for w in weights):
        raise AssertionError("ker(aug) != im(incl)")


def restrict(module, sub):
    """The same (Z/m)^r viewed over a subgroup, re-indexed as a standalone group.

    The restricted action shares the parent's rows and is not checked
    again: local element i of `sub.as_group()` is `sub.elements[i]`, with
    the parent's multiplication, so the parent's homomorphism property holds
    for it verbatim.  The full subgroup gives `module` itself.  Not cached:
    the cohomology layer solves a subgroup's H^1 in the parent's indices and
    does not call this.
    """
    if not isinstance(sub, Subgroup):
        raise TypeError("restrict expects a Subgroup")
    if sub.parent != module.group:
        raise ValueError("subgroup belongs to a different group")
    if sub.order == module.group.order:
        return module
    action = tuple(module.action_rows[x] for x in sub.elements)
    return GModule._from_validated(
        sub.as_group(), module.modulus, module.rank, action,
        f"{module.label} restricted to order-{sub.order} subgroup")


def dual_module(module, twist=None):
    """Unit-twisted dual: action(g) = twist(g) * action(g^{-1})^T over Z/m.

    The dual keeps the module's modulus m, also at rank 0.  `twist` maps
    element indices to units mod m and must be multiplicative, checked at
    (generator s, any b): the a with tw(a)tw(b) = tw(ab) for all b are
    closed under products, as tw(ac)tw(b) = tw(a)tw(c)tw(b) = tw(a(cb)).
    Omitted it is identically 1, giving the plain dual whose double dual
    has the original action tables.
    """
    g = module.group
    m = module.modulus
    n = g.order
    if twist is None:
        tw = [1] * n
    elif callable(twist):
        tw = [int(twist(x)) % m for x in range(n)]
    else:
        tw = []
        for x in range(n):
            try:
                tw.append(int(twist[x]) % m)
            except LookupError:
                raise ValueError(f"twist({x}) has no value") from None
    for x in range(n):
        if gcd(tw[x], m) != 1:
            raise ValueError(f"twist({x}) = {tw[x]} is not a unit mod {m}")
    if tw[g.identity] % m != 1 % m:
        raise ValueError("twist must send the identity to 1")
    for a in g.generating_set():
        for b in range(n):
            if (tw[a] * tw[b]) % m != tw[g.table[a][b]] % m:
                raise ValueError(f"twist is not multiplicative at ({a}, {b})")

    mats = [tuple(zip(*module._matrix(((g.inverse(x), tw[x]),)))) for x in range(n)]
    return GModule(g, m, module.rank, mats, label=f"dual of {module.label}")


def module_from_json(group, obj):
    """Load a module from {"modulus": m, "rank": r, "action": {index: matrix}}."""
    if not isinstance(obj, dict):
        raise ValueError("module JSON must be an object")
    try:
        m, r, action_obj = (obj[key] for key in ("modulus", "rank", "action"))
    except KeyError as missing:
        raise ValueError(f"module JSON is missing key {missing}") from None
    m, r = _json_int(m, "modulus"), _json_int(r, "rank")
    if not isinstance(action_obj, dict):
        raise ValueError("module JSON 'action' must be an object")
    keys = {*range(group.order), *map(str, range(group.order))}
    for key in action_obj:
        if type(key) not in (str, int):
            raise ValueError(f"module JSON 'action' key {key!r} is not a string or an integer")
        if key not in keys:
            raise ValueError(f"module JSON 'action' key {key!r} names no element")
        if type(key) is int and str(key) in action_obj:
            raise ValueError(f"module JSON 'action' gives element {key} twice, as '{key}' and as {key}")
    action = []
    for g in range(group.order):
        key = str(g)
        if key not in action_obj:
            key = g
            if key not in action_obj:
                raise ValueError(f"module JSON has no action matrix for element {g}")
        action.append(_int_rows(action_obj[key], f"action matrix of element {g}"))
    return GModule(group, m, r, action, label="module from JSON")


def _json_int(value, key):
    """An integer given as a JSON number or a decimal string."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"module JSON '{key}' must be an integer")
