"""Exact linear algebra over Z and Z/mZ.

Every quotient downstream (cohomology groups, Tate groups, restriction
kernels) has the form ker A / im B with im B inside ker A, and comes from
one constructor, `QuotientPresentation(a_rows, b_rows, m)`: one reduction
of A^T with a log of its row operations U, in whose coordinates
y = U^-T x the kernel is diagonal, and from which B's coordinates are read
off (Kaczynski, Mischaikow and Mrozek, Computational Homology, 2004, ch. 3:
one reduction per boundary map, carried with its change of basis).
It is the only way into the elimination.  `kernel_mod` is its case B = 0,
ker A / im 0: one generator column per invariant factor of ker A, of
exactly that order.  `quotient_structure` presents a quotient of spans as
a kernel quotient, the ambient span being the kernel of the annihilator
that `kernel_mod`'s construction gives.

The elimination works over the chain ring Z/p^e (Howell, "Spans in the
module (Z_m)^s", 1986; Storjohann and Mulders, "Fast algorithms for linear
algebra modulo N", 1998).  A composite modulus is split by CRT into its
prime-power parts, found by `primes.factorize`.  Over Z/p^e every residue
is a unit times a power of p, so a pivot of least p-valuation, scaled to
exactly p^v, clears its column and its row in one operation per entry:
there are no remainder loops and no divisibility fix-ups, and every entry
stays a residue in [0, p^e).  The arithmetic is still exact (residues are
Python ints), and the fixed pivot rule (least valuation, then lowest
(row, col)) keeps every output reproducible.

`smith_decomposition` and `snf` remain as the Smith normal form over Z,
whose entries can outgrow any word size.
"""

from __future__ import annotations

from itertools import compress
from operator import mul
from typing import NamedTuple

from .primes import factorize


class NotInSpanError(ValueError):
    """A vector claimed to lie in a kernel (or an ambient span) does not.

    When raised from the quotient machinery this signals an internal bug in a
    caller (e.g. a "coboundary" that is not a cocycle), not bad user input.
    """


class IntMatrix:
    """Immutable integer matrix, entries stored row-major.  Built from its
    entries (a zero or diagonal matrix too), `from_rows` or `identity`.
    Entries and dimensions must be `int`s (bools refused): nothing is
    converted, so 0.5 or "7" is an error and not a truncated entry."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries):
        if type(rows) is not int or type(cols) is not int:
            raise ValueError(f"matrix dimensions {rows!r} x {cols!r} are not ints")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = list(entries)
        for k, x in enumerate(entries):
            if type(x) is not int:
                raise ValueError(f"matrix entry {k} is {x!r}, not an int")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = tuple(
            tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows)
        )

    @classmethod
    def from_rows(cls, row_seq):
        rows = [list(r) for r in row_seq]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for i, r in enumerate(rows):
            if len(r) != m:
                raise ValueError(f"row {i} has {len(r)} entries, expected {m}")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @property
    def entries(self):
        """Flat row-major tuple of entries."""
        return tuple(x for row in self._data for x in row)

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def row_lists(self):
        """Mutable copy of the rows, for in-place algorithms."""
        return [list(r) for r in self._data]

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._data == other._data and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(self._data)!r})"

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            bt = list(zip(*other._data)) if other._data else [()] * other.cols
            out = []
            for arow in self._data:
                out.append([sum(a * b for a, b in zip(arow, bcol)) for bcol in bt])
            return IntMatrix(self.rows, other.cols, [x for r in out for x in r])
        return NotImplemented

    def mod(self, m):
        return IntMatrix(self.rows, self.cols, [x % m for row in self._data for x in row])

    def det(self):
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


class _AbGroupStructure(NamedTuple):
    invariant_factors: tuple


class AbGroupStructure(_AbGroupStructure):
    """A finite abelian group as its invariant factor list d1 | d2 | ...

    Factors equal to 1 are never stored, so equality of structures is literal
    equality of the factor tuples; the empty tuple is the trivial group.
    Every construction validates, `_replace` and `_make` included.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors=()):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (drop 1s, no infinite factors)")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {factors} violate the divisibility chain")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self):
        return not self.invariant_factors

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


TRIVIAL_STRUCTURE = AbGroupStructure()


class SmithDecomposition(NamedTuple):
    """U @ M @ V = D with U, V unimodular and D = diag(diagonal), d_i | d_{i+1}."""

    u: IntMatrix
    v: IntMatrix
    diagonal: tuple
    rows: int
    cols: int

    @property
    def d(self):
        return IntMatrix(self.rows, self.cols, [self.diagonal[i] if i == j else 0
                                                for i in range(self.rows) for j in range(self.cols)])


def _nearest_quotient(a, d):
    # d > 0; quotient q with a - q*d in (-d/2, d/2]
    q, r = divmod(a, d)
    if 2 * r > d:
        q += 1
    return q


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def smith_decomposition(mat):
    """Smith normal form with both transforms.

    Pivot choice is the smallest nonzero absolute value, ties broken by lowest
    (row, col), so outputs are reproducible across runs and platforms.

    The transforms ride along with the matrix (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, section 2.4): the R rows
    under reduction are [A | I_R], so every row operation also builds U;
    below them C rows I_C, as wide as A, make [A ; I_C], so every column
    operation also builds V.  Pivot search and divisibility checks read only
    the first C columns of the first R rows.

    Step t clears the pivot's column, then its row, with nearest-quotient
    operations.  It starts over on a remainder, which becomes the pivot,
    or when the pivot does not divide the rest of the submatrix, after
    adding the first offending row to row t.
    """
    R, C = mat.rows, mat.cols
    a = mat.row_lists()
    for row, urow in zip(a, _identity_rows(R)):
        row += urow
    a += _identity_rows(C)

    def row_sub(i, k, q):
        # row_i -= q * row_k, in place and over the nonzeros of row_k
        ai = a[i]
        for j, y in enumerate(a[k]):
            if y:
                ai[j] -= q * y

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]

    def pivot_row(i):
        # row i becomes row t, negated if its pivot is negative
        a[t], a[i] = a[i], a[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    t = 0
    limit = min(R, C)
    while t < limit:
        best = min(((abs(x), i, j) for i in range(t, R)
                    for j, x in enumerate(a[i][t:C], t) if x), default=None)
        if best is None:
            break
        _, i, j = best
        col_swap(t, j)
        pivot_row(i)
        while True:
            d = a[t][t]
            for i in range(t + 1, R):
                if a[i][t]:
                    row_sub(i, t, _nearest_quotient(a[i][t], d))
                    if a[i][t]:
                        pivot_row(i)
                        break
            else:
                for j in range(t + 1, C):
                    if a[t][j]:
                        q = _nearest_quotient(a[t][j], d)
                        for r in a:
                            r[j] -= q * r[t]
                        if a[t][j]:
                            col_swap(t, j)
                            pivot_row(t)
                            break
                else:
                    break
        bad = next((i for i in range(t + 1, R) if any(x % d for x in a[i][t + 1:C])), None)
        if bad is None:
            t += 1
        else:
            row_sub(t, bad, -1)  # row_t += row_bad, reintroduces the offender

    diag = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(
        u=IntMatrix.from_rows([row[C:] for row in a[:R]]),
        v=IntMatrix.from_rows(a[R:]),
        diagonal=diag, rows=R, cols=C,
    )


def snf(mat):
    """Smith normal form: returns (U, D, V) with U @ mat @ V = D.

    D is diagonal with nonnegative entries in a divisibility chain; U and V
    are invertible over the integers (determinant +-1).
    """
    dec = smith_decomposition(mat)
    return dec.u, dec.d, dec.v


def _crt_lift(m, q):
    """The residue mod m that is 1 mod q and 0 mod m/q (q, m/q coprime)."""
    k = m // q
    return k * pow(k, -1, q) % m


def _reduce(rows, p, e):
    """Smith reduction over Z/p^e of the matrix A with rows `rows`, in place.

    The rows hold residues in [0, p^e).  Step t takes the entry of least
    p-valuation v in rows t.., lowest (row, col) on ties, swaps its row to
    t and scales it by a unit inverse so the pivot is exactly p^v; then
    each later row with x in the pivot column drops (x / p^v) times it.
    Every remaining entry keeps valuation >= v, so the pivot also divides
    the rest of its own row, and the column operations that would clear it
    touch no other row: they are left out, as no caller needs V.  Rows past
    the last step are zero.

    Returns (vals, log): U A V has p^vals[t] in row t for t < len(vals),
    and zeros elsewhere.  Step t is logged as (t, bi, unit, ops): swap rows
    t and bi, scale row t by unit^-1, then row_i -= f row_t for each (i, f)
    in ops.  U itself is never formed: `_undo` replays the log backwards to
    apply U^-1 to one vector, `_apply_ut` backwards and transposed to apply
    U^T, and `_PrimePowerQuotient` reads U^-T off it forwards.
    """
    q = p ** e
    R = len(rows)
    vals, log = [], []
    for t in range(R):
        best, bi, bc = e, -1, -1
        for i in range(t, R):
            row = rows[i]
            if not any(row):
                continue
            for j, x in enumerate(row):
                if x:
                    val = 0
                    while x % p == 0 and val < best:
                        x //= p
                        val += 1
                    if val < best:
                        best, bi, bc = val, i, j
                        if not val:
                            break
            if not best:
                break
        if bi < 0:
            break
        rows[t], rows[bi] = rows[bi], rows[t]
        prow = rows[t]
        pv = p ** best
        unit = prow[bc] // pv
        if unit != 1:
            inv = pow(unit, -1, q)
            prow = rows[t] = [x * inv % q for x in prow]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        ops = []
        for i in range(t + 1, R):
            row = rows[i]
            x = row[bc]
            if x:
                f = x // pv
                for j, y in nz:
                    row[j] = (row[j] - f * y) % q
                ops.append((i, f))
        log.append((t, bi, unit, ops))
        vals.append(best)
    return vals, log


def _undo(log, vec, q):
    """U^-1 vec mod q, in place, for the U whose steps `_reduce` logged.

    Each step is undone in reverse: row_i -= f row_t by vec_i += f vec_t,
    the scale by unit^-1 by multiplying vec_t by unit, then the swap.
    """
    for t, bi, unit, ops in reversed(log):
        y = vec[t]
        if y:
            for i, f in ops:
                vec[i] = (vec[i] + f * y) % q
            vec[t] = y * unit % q
        vec[t], vec[bi] = vec[bi], vec[t]
    return vec


def _apply_ut(log, vec, q):
    """U^T vec mod q, in place, for the U whose steps `_reduce` logged.

    U^T applies each step transposed, the last first: row_i -= f row_t
    becomes vec_t -= f vec_i, the scale of row t by unit^-1 scales vec_t
    by it, and the swap stays a swap.
    """
    for t, bi, unit, ops in reversed(log):
        y = vec[t] - sum(f * vec[i] for i, f in ops)
        vec[t] = y * pow(unit, -1, q) % q if unit != 1 else y % q
        vec[t], vec[bi] = vec[bi], vec[t]
    return vec


class _PrimePowerQuotient:
    """The p-primary part of ker A / im B, computed over Z/q, q = p^e.

    ker A comes from one logged reduction of A^T, whose rows `at_rows` are
    the columns of A.  With U A^T V = D and x = U^T y, A x = V^-T D^T y, so
    x lies in ker A exactly when p^v_t y_t = 0 for each pivot row t: ker A
    is the sum of the cyclic groups generated by U^T (s_t e_t),
    s_t = p^(e - v_t) for a pivot row and 1 past the pivots.  Each summand
    with s_t < q is kept as (t, s_t, y_t), t ascending, with
    y_t = (U^-T x)_t as a sparse functional [(index, coefficient)].

    U^-T x replays the log forward, transposed: step t swaps x_t and x_bi,
    multiplies x_t by unit, then adds f x_i for each (i, f) in ops.
    Position t is final after step t, and the steps before it changed only
    positions below t, so y_t reads the original entries under the swaps
    made so far; past the last step, y_t is the entry of x that the swaps
    moved there.  So only the summands of a pivot row need a functional of
    more than one entry.

    In these coordinates ker A is the sum of Z/(q / s_t) over the kept
    summands t, and c_t = y_t / s_t is the coordinate of x in summand t.
    The relation step (`_relate`) reduces, in those coordinates, the
    columns of B next to (q / s_t) e_t for each
    summand of order below q: U_rel R V_rel has pivots p^w_j, so the
    quotient is the sum of Z/p^w_j plus a Z/q for each row without pivot.
    The j-th generator is U^T (s * w), w = U_rel^-1 e_j, both replayed from
    the logs; so is row j of U_rel, which `coordinates` applies to c.  Only
    the summands of order >= 2 are kept, in `factors`, `gens` and the rows
    of `_u_rel`, ascending.  The logs are dropped once `gens` is built.
    """

    __slots__ = ("q", "lift", "factors", "gens", "_funcs", "_u_rel")

    def __init__(self, at_rows, b_rows, p, e, m):
        q = p ** e
        vals, log = _reduce([[x % q for x in col] for col in at_rows], p, e)
        perm = list(range(len(at_rows)))
        kept = []
        for (t, bi, unit, ops), v in zip(log, vals):
            perm[t], perm[bi] = perm[bi], perm[t]
            if v:
                kept.append((t, p ** (e - v), [(perm[t], unit)] + [(perm[i], f) for i, f in ops]))
        kept += [(t, 1, [(perm[t], 1)]) for t in range(len(vals), len(at_rows))]
        self.gens = [_apply_ut(log, y, q) for y in self._relate(b_rows, kept, p, e, m)]

    def _relate(self, b_rows, kept, p, e, m):
        """The relation step over the kept summands (t, s_t, y_t) of ker A.

        Sets everything but `gens`, and returns each generator's
        coordinates y, s_t w_t at position t, for the caller to lift.
        """
        q = p ** e
        n = len(kept)
        pad = [k for k, (_, s, _) in enumerate(kept) if s > 1]
        rel = []
        for k, (_, s, func) in enumerate(kept):
            (i, c), *rest = func
            y = [c * b for b in b_rows[i]]
            for i, c in rest:
                y = [a + c * b for a, b in zip(y, b_rows[i])]
            rel.append([a % q // s for a in y] + [q // s if k == j else 0 for j in pad])
        rel_vals, rel_log = _reduce(rel, p, e)

        factors, gens, u_rel = [], [], []
        for j in range(n):
            d = p ** rel_vals[j] if j < len(rel_vals) else q
            if d < 2:
                continue
            y = [0] * len(b_rows)
            for (t, s, _), w in zip(kept, _undo(rel_log, [int(k == j) for k in range(n)], q)):
                y[t] = s * w % q
            factors.append(d)
            gens.append(y)
            u_rel.append(_apply_ut(rel_log, [int(k == j) for k in range(n)], q))
        self.q = q
        self.lift = _crt_lift(m, q)
        self.factors = factors
        self._funcs = [(s, func) for _, s, func in kept]
        self._u_rel = u_rel
        return gens

    def coordinates(self, vec):
        """Integers that reduce mod `factors` to the class of `vec` (in ker A mod q)."""
        q = self.q
        c = [sum(f * vec[i] for i, f in func) % q // s for s, func in self._funcs]
        return [sum(map(mul, urow, c)) for urow in self._u_rel]


class QuotientPresentation:
    """The finite abelian group ker A / im B mod m, with im B inside ker A.

    A and B are given by their rows: A has one column per row of B
    (`a_rows` may be empty), and B is len(b_rows) x n.  Carries explicit
    generators: `generator_columns[i]` has exact order
    `structure.invariant_factors[i]` in the quotient, and `coordinates(x)`
    expresses any vector of ker A in those generators.

    Each prime power q of m gives the p-primary part (`_PrimePowerQuotient`),
    with its factors ascending: one logged reduction of A^T, off which B's
    coordinates are read.  Aligned at their largest factor, the parts'
    factors multiply to the invariant factors, and the CRT lifts of their
    generators add up to generators of the product orders; a coordinate is
    the CRT combination of the parts' coordinates.  im B inside ker A is
    checked column by column with the test `coordinates` applies; a column
    of B outside ker A raises NotInSpanError, a bug in the caller.
    """

    __slots__ = ("structure", "generator_columns", "modulus", "dim", "_parts", "_a_cols")

    def __init__(self, a_rows, b_rows, modulus):
        m = int(modulus)
        if m < 1:
            raise ValueError("modulus must be >= 1")
        dim = len(b_rows)
        if any(len(row) != dim for row in a_rows):
            raise ValueError(f"a row of A does not have {dim} entries, one per row of B")
        if len({len(row) for row in b_rows}) > 1:
            raise ValueError("the rows of B differ in length")
        at_rows = list(zip(*a_rows)) if a_rows else [()] * dim
        self.modulus = m
        self.dim = dim
        self._a_cols = [[(i, x) for i, x in enumerate(col) if x % m] for col in at_rows]
        self._parts = ()
        if m == 1 or dim == 0:
            self.structure = TRIVIAL_STRUCTURE
            self.generator_columns = ()
            return
        if not all(map(self._in_kernel, zip(*b_rows))):
            raise NotInSpanError(f"a column of B is not in ker A mod {m}")

        parts = tuple(_PrimePowerQuotient(at_rows, b_rows, p, e, m)
                      for p, e in factorize(m).items())
        k = max(len(part.factors) for part in parts)
        factors = [1] * k
        gens = [[0] * dim for _ in range(k)]
        for part in parts:
            offset = k - len(part.factors)
            for i, (d, gen) in enumerate(zip(part.factors, part.gens), offset):
                factors[i] *= d
                gens[i] = [(a + part.lift * b) % m for a, b in zip(gens[i], gen)]
        self.structure = AbGroupStructure(factors)
        self.generator_columns = tuple(tuple(gen) for gen in gens)
        self._parts = parts

    def _in_kernel(self, vec):
        """A vec = 0 mod m, over the nonzeros of vec and of A's columns."""
        acc = {}
        for k in compress(range(len(vec)), vec):
            for i, a in self._a_cols[k]:
                acc[i] = acc.get(i, 0) + a * vec[k]
        m = self.modulus
        return not any(y % m for y in acc.values())

    def coordinates(self, vector):
        """Class of `vector` in generator coordinates (one residue per factor).

        Raises NotInSpanError if the vector is outside ker A mod m.
        """
        vec = list(vector)
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != ambient dimension {self.dim}")
        if not self._in_kernel(vec):
            raise NotInSpanError(f"vector is not in ker A mod {self.modulus}")
        factors = self.structure.invariant_factors
        c = [0] * len(factors)
        for part in self._parts:
            coords = part.coordinates(vec)
            offset = len(factors) - len(coords)
            for i, x in enumerate(coords, offset):
                c[i] += part.lift * x
        return tuple(x % d for x, d in zip(c, factors))


def kernel_mod(mat, modulus):
    """Generators of { x mod modulus : mat @ x == 0 (mod modulus) } as columns.

    The kernel is the quotient ker A / im 0, so the columns are the
    generators of `QuotientPresentation(rows of mat, [()] * mat.cols,
    modulus)`: one per invariant factor d of the kernel, of order exactly d,
    each combined across the primes of the modulus by CRT.  An injective map
    yields a `mat.cols x 0` matrix; a modulus below 1 is refused.
    """
    gens = QuotientPresentation(mat._data, [()] * mat.cols, modulus).generator_columns
    return IntMatrix(mat.cols, len(gens), [gen[i] for i in range(mat.cols) for gen in gens])


def quotient_structure(sub_gens, amb_gens, modulus):
    """Invariant factors of (ambient span mod m)/(sub span mod m).

    Over Z/m, which is self-injective, the span of the ambient columns is
    the kernel of their annihilator, the rows a with a . amb_j = 0 for
    every column: the kernel generators, as `kernel_mod` reads them, of the
    matrix whose rows are the ambient columns.  So this is
    QuotientPresentation(annihilator rows, rows of sub_gens, m); the first
    of the two presentations rejects a modulus below 1.  Requires every sub
    generator to lie in the ambient span mod m; a violation raises
    NotInSpanError since it signals a bug in the caller.
    """
    if sub_gens.rows != amb_gens.rows:
        raise ValueError("sub and ambient generators live in different dimensions")
    annihilator = QuotientPresentation(list(zip(*amb_gens._data)), [()] * amb_gens.rows,
                                       modulus).generator_columns
    return QuotientPresentation(annihilator, sub_gens._data, modulus).structure
