"""Exact linear algebra over Z and Z/mZ.

Everything downstream (cochain kernels, cohomology quotients, Tate groups)
reduces to Smith normal form of integer matrices, so this module is the one
computational engine.  All arithmetic is on Python ints: intermediate entries
of a Smith reduction can outgrow any fixed word size even for small inputs,
and a silent overflow would corrupt invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NotInSpanError(ValueError):
    """A vector claimed to lie in an ambient span does not.

    When raised from the quotient machinery this signals an internal bug in a
    caller (e.g. a "coboundary" that is not a cocycle), not bad user input.
    """


class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries):
        rows = int(rows)
        cols = int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = [int(x) for x in entries]
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
    def from_columns(cls, col_seq, dim=None):
        """Build from a list of column vectors; `dim` disambiguates the empty list."""
        cols = [list(c) for c in col_seq]
        if not cols:
            if dim is None:
                raise ValueError("dim is required for an empty column list")
            return cls(dim, 0, [])
        n = len(cols[0])
        for j, c in enumerate(cols):
            if len(c) != n:
                raise ValueError(f"column {j} has {len(c)} entries, expected {n}")
        return cls(n, len(cols), [cols[j][i] for i in range(n) for j in range(len(cols))])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, diag):
        diag = list(diag)
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])

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

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self._data)

    def mod(self, m):
        return IntMatrix(self.rows, self.cols, [x % m for row in self._data for x in row])

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return IntMatrix.from_rows([list(a) + list(b) for a, b in zip(self._data, other._data)])

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


@dataclass(frozen=True)
class AbGroupStructure:
    """A finite abelian group as its invariant factor list d1 | d2 | ...

    Factors equal to 1 are never stored, so equality of structures is literal
    equality of the factor tuples; the empty tuple is the trivial group.
    """

    invariant_factors: tuple

    def __init__(self, invariant_factors=()):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (drop 1s, no infinite factors)")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {factors} violate the divisibility chain")
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def from_diagonal(cls, diag):
        """Structure from a Smith diagonal; 1s are dropped, 0s are rejected."""
        factors = []
        for d in diag:
            d = abs(int(d))
            if d == 0:
                raise ValueError("zero diagonal entry: group is infinite")
            if d >= 2:
                factors.append(d)
        return cls(sorted(factors))

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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = D with U, V unimodular and D = diag(diagonal), d_i | d_{i+1}."""

    u: IntMatrix | None
    u_inv: IntMatrix | None
    v: IntMatrix | None
    diagonal: tuple
    rows: int
    cols: int

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def d(self):
        m = IntMatrix.zero(self.rows, self.cols)
        data = [list(r) for r in m._data]
        for i, di in enumerate(self.diagonal):
            data[i][i] = di
        return IntMatrix.from_rows(data)


def _nearest_quotient(a, d):
    # d > 0; quotient q with a - q*d in (-d/2, d/2]
    q, r = divmod(a, d)
    if 2 * r > d:
        q += 1
    return q


def smith_decomposition(mat, *, want_u=True, want_u_inv=False, want_v=True):
    """Smith normal form with selectable transform tracking.

    Pivot choice is the smallest nonzero absolute value, ties broken by lowest
    (row, col), so outputs are reproducible across runs and platforms.

    The transforms ride along with the matrix (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, section 2.4): the R rows
    under reduction are [A | I_R], so every row operation also builds U;
    below them C rows I_C, as wide as A, make [A ; I_C], so every column
    operation also builds V.  Pivot search and divisibility checks read only
    the first C columns of the first R rows.  U^-1 is kept apart and
    transposed: undoing row_i -= q row_k adds q times its column i to its
    column k.
    """
    R, C = mat.rows, mat.cols

    def identity(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    a = mat.row_lists()
    if want_u:
        for row, urow in zip(a, identity(R)):
            row += urow
    if want_v:
        a += identity(C)
    uit = identity(R) if want_u_inv else None

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        if uit is not None:
            uit[i], uit[k] = uit[k], uit[i]

    def row_sub(i, k, q):
        # row_i -= q * row_k, in place and over the nonzeros of row_k
        ai = a[i]
        for j, y in enumerate(a[k]):
            if y:
                ai[j] -= q * y
        if uit is not None:
            uit[k] = [x + q * y for x, y in zip(uit[k], uit[i])]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if uit is not None:
            uit[i] = [-x for x in uit[i]]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for r in a:
            r[j] -= q * r[k]

    t = 0
    limit = min(R, C)
    while t < limit:
        # locate pivot: minimal |entry|, lowest (row, col) on ties
        best_abs = 0
        best_i = best_j = -1
        for i in range(t, R):
            ai = a[i]
            for j in range(t, C):
                x = ai[j]
                if x:
                    ax = -x if x < 0 else x
                    if best_abs == 0 or ax < best_abs:
                        best_abs, best_i, best_j = ax, i, j
                        if ax == 1:
                            break
            if best_abs == 1:
                break
        if best_abs == 0:
            break
        if best_i != t:
            row_swap(t, best_i)
        if best_j != t:
            col_swap(t, best_j)
        if a[t][t] < 0:
            row_negate(t)

        while True:
            # clear column t; a remainder smaller than the pivot becomes the pivot
            restart = False
            for i in range(t + 1, R):
                x = a[i][t]
                if x:
                    d = a[t][t]
                    q = _nearest_quotient(x, d)
                    if q:
                        row_sub(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_negate(t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                x = a[t][j]
                if x:
                    d = a[t][t]
                    q = _nearest_quotient(x, d)
                    if q:
                        col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        if a[t][t] < 0:
                            row_negate(t)
                        restart = True
                        break
            if restart:
                continue
            break

        # pivot must divide the rest of the submatrix before we advance
        d = a[t][t]
        fixed = True
        for i in range(t + 1, R):
            ai = a[i]
            for j in range(t + 1, C):
                if ai[j] % d:
                    row_sub(t, i, -1)  # row_t += row_i, reintroduces the offender
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    diag = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(
        u=IntMatrix.from_rows([row[C:] for row in a[:R]]) if want_u else None,
        u_inv=None if uit is None else IntMatrix.from_columns(uit, dim=R),
        v=IntMatrix.from_rows(a[R:]) if want_v else None,
        diagonal=diag, rows=R, cols=C,
    )


def snf(mat):
    """Smith normal form: returns (U, D, V) with U @ mat @ V = D.

    D is diagonal with nonnegative entries in a divisibility chain; U and V
    are invertible over the integers (determinant +-1).
    """
    dec = smith_decomposition(mat, want_u=True, want_v=True)
    return dec.u, dec.d, dec.v


def kernel_mod(mat, modulus):
    """Generators of { x mod modulus : mat @ x == 0 (mod modulus) } as columns.

    From U M V = D: x = Vz is a solution iff d_i z_i == 0 (mod m), so the
    kernel lattice is spanned by the columns of V scaled by m/gcd(d_i, m).
    Zero columns are dropped; an injective map yields a 0-column matrix.
    """
    m = int(modulus)
    if m < 1:
        raise ValueError("modulus must be >= 1")
    C = mat.cols
    if m == 1:
        return IntMatrix(C, 0, [])
    dec = smith_decomposition(mat, want_u=False, want_v=True)
    diag = dec.diagonal
    cols = []
    vdata = dec.v._data
    for i in range(C):
        d = diag[i] if i < len(diag) else 0
        scale = m // gcd(d, m)
        col = [(vdata[r][i] * scale) % m for r in range(C)]
        if any(col):
            cols.append(col)
    return IntMatrix.from_columns(cols, dim=C)


class QuotientPresentation:
    """The finite abelian group (span of ambient columns mod m)/(span of sub columns mod m).

    Carries explicit generators: `generator_columns[i]` has exact order
    `structure.invariant_factors[i]` in the quotient, and `coordinates(x)`
    expresses any ambient-span vector in those generators.

    With U_amb [A | mI] V = D, a vector x lies in the ambient lattice iff
    D^-1 U_amb x is integral, and that integral vector is its coordinate in
    the lattice basis W = U_amb^-1 D.  The sub lattice [S | mI] has
    coordinates C = D^-1 U_amb [S | mI]; with U_rel C V' = diag(delta), the
    quotient is the sum of Z/delta_i, generated by the columns of
    W U_rel^-1.  Only the columns with delta_i >= 2 are formed: the others
    are trivial in the quotient.
    """

    __slots__ = ("structure", "generator_columns", "modulus", "dim",
                 "_u_amb", "_diag_amb", "_u_rel", "_delta")

    def __init__(self, sub_gens, amb_gens, modulus):
        m = int(modulus)
        if m < 1:
            raise ValueError("modulus must be >= 1")
        if sub_gens.rows != amb_gens.rows:
            raise ValueError("sub and ambient generators live in different dimensions")
        dim = amb_gens.rows
        self.modulus = m
        self.dim = dim
        if m == 1 or dim == 0:
            self.structure = TRIVIAL_STRUCTURE
            self.generator_columns = ()
            self._u_amb = self._diag_amb = self._u_rel = self._delta = None
            return

        amb = amb_gens.hstack(IntMatrix.diagonal([m] * dim))
        s_amb = smith_decomposition(amb, want_u=True, want_u_inv=True, want_v=False)
        diag = s_amb.diagonal
        if len(diag) < dim or any(d == 0 for d in diag[:dim]):
            raise AssertionError("ambient lattice lost full rank despite m*I columns")
        diag = diag[:dim]

        # U [S | mI] = [US | mU], with US summed over the nonzeros of U
        s_rows = sub_gens._data
        coords = []
        for urow, di in zip(s_amb.u._data, diag):
            yrow = [0] * sub_gens.cols
            for k, x in enumerate(urow):
                if x:
                    yrow = [a + x * b for a, b in zip(yrow, s_rows[k])]
            yrow += [m * x for x in urow]
            crow = []
            for j, yj in enumerate(yrow):
                q, r = divmod(yj, di)
                if r:
                    if j < sub_gens.cols:
                        raise NotInSpanError(
                            f"sub generator {j} is not in the ambient span mod {m}"
                        )
                    raise AssertionError("m*I column escaped the ambient lattice")
                crow.append(q)
            coords.append(crow)
        s_rel = smith_decomposition(IntMatrix.from_rows(coords),
                                    want_u=True, want_u_inv=True, want_v=False)
        delta = s_rel.diagonal
        if len(delta) < dim or any(d == 0 for d in delta[:dim]):
            raise AssertionError("relation lattice lost full rank despite m*I columns")
        delta = tuple(delta[:dim])

        factors = []
        gens = []
        for i, d in enumerate(delta):
            if d >= 2:
                factors.append(d)
                dcol = [dk * row[i] for dk, row in zip(diag, s_rel.u_inv._data)]
                gens.append(tuple(x % m for x in s_amb.u_inv.mul_vector(dcol)))
        self.structure = AbGroupStructure(factors)
        self.generator_columns = tuple(gens)
        self._u_amb = s_amb.u
        self._diag_amb = diag
        self._u_rel = s_rel.u
        self._delta = delta

    def coordinates(self, vector):
        """Class of `vector` in generator coordinates (one residue per factor).

        Raises NotInSpanError if the vector is outside the ambient span mod m.
        """
        vec = list(vector)
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != ambient dimension {self.dim}")
        if self._u_amb is None:
            return ()
        y = self._u_amb.mul_vector(vec)
        c = []
        for yi, di in zip(y, self._diag_amb):
            q, r = divmod(yi, di)
            if r:
                raise NotInSpanError("vector is not in the ambient span mod m")
            c.append(q)
        full = self._u_rel.mul_vector(c)
        return tuple(full[i] % d for i, d in enumerate(self._delta) if d >= 2)


def quotient_structure(sub_gens, amb_gens, modulus):
    """Invariant factors of (ambient span mod m)/(sub span mod m).

    Requires every sub generator to lie in the ambient span mod m; a
    violation raises NotInSpanError since it signals a bug in the caller.
    """
    return QuotientPresentation(sub_gens, amb_gens, modulus).structure
