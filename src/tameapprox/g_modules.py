"""Finite G-modules over Z/mZ with explicit action matrices.

The central objects are the group ring (Z/m)[G], its augmentation ideal I
with basis {g - 1 : g != e}, restrictions to subgroups, and the unit-twisted
dual.  A module is always free as a Z/m-module, (Z/m)^r; only the G-action
varies.
"""

from __future__ import annotations

import weakref
from math import gcd

from .finite_groups import Subgroup, _int_rows
from .zmod_linalg import IntMatrix, kernel_mod, quotient_structure

_FULL_SCAN_LIMIT = 64


def _mat_mul_mod(a, b, m):
    """a @ b mod m, each row built from the rows of b that a's nonzeros select.

    The cost is the nonzeros of a times the width of b: about r^2 for the
    0/+-1 actions of the group ring and the augmentation ideal, not r^3.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                acc = [u + x * v for u, v in zip(acc, b[k])]
        out.append(tuple(u % m for u in acc))
    return tuple(out)


def _identity_rows(r):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


class GModule:
    """(Z/m)^r with a G-action given per group element by an r x r matrix.

    Construction verifies that the action is a genuine homomorphism
    G -> GL_r(Z/m): the identity acts trivially and action(s)action(h) =
    action(sh) for every generator s and element h.  That suffices: every
    g is a word s_1...s_k in the generators, and induction on k gives
    action(g)action(h) = action(s_1)action(s_2...s_k h) = action(gh).
    Invertibility follows: action(g) action(g^{-1}) = 1.  `_from_validated`
    skips the check for an action that is already known to be one.
    """

    __slots__ = ("group", "modulus", "rank", "action", "label",
                 "_h1_cache", "_restrict_cache", "_cyclic_cache")

    def __init__(self, group, modulus, rank, action, label=None):
        m = int(modulus)
        if m < 2:
            raise ValueError("modulus must be >= 2")
        r = int(rank)
        if r < 0:
            raise ValueError("rank must be >= 0")
        n = group.order
        if len(action) != n:
            raise ValueError(f"{len(action)} action matrices for a group of order {n}")
        mats = []
        for g, mat in enumerate(action):
            rows = tuple(tuple(int(x) % m for x in row) for row in mat)
            if len(rows) != r or any(len(row) != r for row in rows):
                raise ValueError(f"action matrix for element {g} is not {r}x{r}")
            mats.append(rows)
        mats = tuple(mats)

        ident = _identity_rows(r)
        if mats[group.identity] != ident:
            raise ValueError("identity element must act as the identity matrix")
        for g in group.generating_set():
            for h in range(n):
                if _mat_mul_mod(mats[g], mats[h], m) != mats[group.table[g][h]]:
                    raise ValueError(
                        f"action is not a homomorphism: action({g})*action({h}) != action({g}*{h})"
                    )
        self._set(group, m, r, mats, label)

    @classmethod
    def _from_validated(cls, group, modulus, rank, action, label):
        """A module over `action`, a tuple of reduced matrices already known
        to be a homomorphism from `group`; nothing is checked or copied."""
        module = cls.__new__(cls)
        module._set(group, modulus, rank, action, label)
        return module

    def _set(self, group, modulus, rank, action, label):
        self.group = group
        self.modulus = modulus
        self.rank = rank
        self.action = action
        self.label = label or f"module of rank {rank} over Z/{modulus}"
        self._h1_cache = None
        self._restrict_cache = {}
        self._cyclic_cache = {}

    def act_matrix(self, g):
        return self.action[g]

    def act(self, g, vec):
        m = self.modulus
        return tuple(sum(a * v for a, v in zip(row, vec)) % m for row in self.action[g])

    @property
    def size(self):
        return self.modulus ** self.rank

    @property
    def exponent(self):
        """Additive exponent of the underlying group (Z/m)^r."""
        return self.modulus if self.rank else 1

    def zero(self):
        return (0,) * self.rank

    def __repr__(self):
        return f"GModule({self.label}, |G|={self.group.order})"


class ModuleMap:
    """A G-equivariant linear map between modules over the same Z/m.

    Commutation is checked on `group.generating_set()` only.  That suffices:
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
        for g in source.group.generating_set():
            left = _mat_mul_mod(target.act_matrix(g), mat._data, m)
            right = _mat_mul_mod(mat._data, source.act_matrix(g), m)
            if left != right:
                raise ValueError(f"map does not commute with the action of element {g}")
        self.source = source
        self.target = target
        self.matrix = mat

    def apply(self, vec):
        m = self.target.modulus
        return tuple(x % m for x in self.matrix.mul_vector(vec))


_RING_CACHE = weakref.WeakKeyDictionary()
_IDEAL_CACHE = weakref.WeakKeyDictionary()


def trivial_module(group, modulus, rank=1):
    ident = _identity_rows(rank)
    return GModule(group, modulus, rank,
                   [ident] * group.order,
                   label=f"trivial Z/{modulus}" + (f"^{rank}" if rank != 1 else ""))


def group_ring(group, modulus):
    """(Z/m)[G]: basis indexed by group elements, g acting by left translation.

    Cached per (group, modulus): modules are immutable, and reuse lets the
    cohomology layer share H^1 results across verification passes.
    """
    cache = _RING_CACHE.setdefault(group, {})
    if modulus in cache:
        return cache[modulus]
    n = group.order
    mats = []
    for g in range(n):
        mat = [[0] * n for _ in range(n)]
        for h in range(n):
            mat[group.table[g][h]][h] = 1  # g sends basis vector h to g*h
        mats.append(mat)
    ring = GModule(group, modulus, n, mats, label=f"(Z/{modulus})[G]")
    cache[modulus] = ring
    return ring


def augmentation_ideal(group, modulus):
    """The augmentation ideal I of (Z/m)[G] with basis {g - 1 : g != e}.

    Returns (I, incl, aug) where incl: I -> (Z/m)[G] is the basis inclusion
    and aug: (Z/m)[G] -> Z/m is the all-ones augmentation; aug o incl = 0 and
    incl is injective mod m, so the three-term sequence is exact.  Cached per
    (group, modulus) like the group ring.
    """
    cache = _IDEAL_CACHE.setdefault(group, {})
    if modulus in cache:
        return cache[modulus]
    n = group.order
    e = group.identity
    basis = [g for g in range(n) if g != e]  # basis vector i is (basis[i] - 1)
    pos = {g: i for i, g in enumerate(basis)}
    r = n - 1

    mats = []
    for g in range(n):
        mat = [[0] * r for _ in range(r)]
        for i, h in enumerate(basis):
            gh = group.table[g][h]
            # g*(h-1) = (gh-1) - (g-1)
            if gh != e:
                mat[pos[gh]][i] += 1
            if g != e:
                mat[pos[g]][i] -= 1
        mats.append(mat)
    ideal = GModule(group, modulus, r, mats, label=f"augmentation ideal of (Z/{modulus})[G]")

    ring = group_ring(group, modulus)
    incl_rows = [[0] * r for _ in range(n)]
    for i, h in enumerate(basis):
        incl_rows[h][i] += 1
        incl_rows[e][i] -= 1
    incl = ModuleMap(ideal, ring, IntMatrix.from_rows(incl_rows))
    aug = ModuleMap(ring, trivial_module(group, modulus),
                    IntMatrix.from_rows([[1] * n]))

    if n <= _FULL_SCAN_LIMIT:
        _check_augmentation_exactness(incl, aug)
    cache[modulus] = (ideal, incl, aug)
    return ideal, incl, aug


def _check_augmentation_exactness(incl, aug):
    m = incl.source.modulus
    if kernel_mod(incl.matrix, m).cols != 0:
        raise AssertionError("augmentation ideal inclusion is not injective mod m")
    if any(any(row) for row in _mat_mul_mod(aug.matrix._data, incl.matrix._data, m)):
        raise AssertionError("aug o incl is nonzero")
    ker = kernel_mod(aug.matrix, m)
    if not quotient_structure(incl.matrix, ker, m).is_trivial:
        raise AssertionError("ker(aug) != im(incl)")


def restrict(module, sub):
    """The same (Z/m)^r viewed over a subgroup, re-indexed as a standalone group.

    The restricted action shares the parent's matrices and is not checked
    again: local element i of `sub.as_group()` is `sub.elements[i]`, with
    the parent's multiplication, so the parent's homomorphism property holds
    for it verbatim.  Cached per element set, so the restriction (and its
    cached H^1) is shared between the kernel computations that revisit the
    same subgroup.  The full subgroup gives `module` itself, whose group
    has the same table, so its cached H^1 is reused too.
    """
    if not isinstance(sub, Subgroup):
        raise TypeError("restrict expects a Subgroup")
    if sub.parent != module.group:
        raise ValueError("subgroup belongs to a different group")
    if sub.order == module.group.order:
        return module
    cached = module._restrict_cache.get(sub.elements)
    if cached is not None:
        return cached
    action = tuple(module.action[x] for x in sub.elements)
    res = GModule._from_validated(
        sub.as_group(), module.modulus, module.rank, action,
        f"{module.label} restricted to order-{sub.order} subgroup")
    module._restrict_cache[sub.elements] = res
    return res


def dual_module(module, twist=None):
    """Unit-twisted dual: action(g) = twist(g) * action(g^{-1})^T over Z/e.

    The dual modulus is the additive exponent e of the module (equal to m for
    positive rank).  `twist` maps element indices to units mod e and must be
    multiplicative; omitted it is identically 1, giving the plain dual whose
    double dual has the original action tables mod e.
    """
    g = module.group
    e = module.exponent
    n = g.order
    if twist is None:
        tw = [1] * n
    elif callable(twist):
        tw = [int(twist(x)) % e for x in range(n)]
    else:
        tw = [int(twist[x]) % e for x in range(n)]
    for x in range(n):
        if gcd(tw[x], e) != 1:
            raise ValueError(f"twist({x}) = {tw[x]} is not a unit mod {e}")
    if tw[g.identity] % e != 1 % e:
        raise ValueError("twist must send the identity to 1")
    for a in range(n):
        for b in range(n):
            if (tw[a] * tw[b]) % e != tw[g.table[a][b]] % e:
                raise ValueError(f"twist is not multiplicative at ({a}, {b})")

    mats = []
    for x in range(n):
        inv = g.inverse(x)
        src = module.action[inv]
        r = module.rank
        mats.append(tuple(
            tuple((tw[x] * src[j][i]) % e for j in range(r)) for i in range(r)
        ))
    return GModule(g, e, module.rank, mats, label=f"dual of {module.label}")


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
