import random
import sys
import types
from math import gcd, prod

import pytest

from tameapprox.zmod_linalg import (
    AbGroupStructure,
    IntMatrix,
    NotInSpanError,
    QuotientPresentation,
    kernel_mod,
    _apply_ut,
    _reduce,
    _undo,
    quotient_structure,
    smith_decomposition,
    snf,
)

from oracle_helpers import (
    as_columns,
    as_matrix,
    both_kernel_paths,
    both_quotient_paths,
    brute_kernel_set,
    coset_order_counts,
    dense_quotient_presentation,
    diagonal,
    image_in_kernel,
    int_mat_vec,
    old_pair_quotient,
    predicted_order_counts,
    reference_smith_decomposition,
    ride_along_kernel,
    span_mod,
    span_presentation,
    uit_reduce,
)


def random_quotient_inputs():
    """60 seeded (m, dim, amb_cols, sub_cols, amb_set), sub inside amb."""
    rng = random.Random(99)
    trials = 0
    while trials < 60:
        m = rng.choice([2, 3, 4, 6, 8, 9])
        dim = rng.randint(1, 3)
        if m ** dim > 2 ** 14:
            continue
        amb_cols = [
            tuple(rng.randint(0, m - 1) for _ in range(dim))
            for _ in range(rng.randint(1, 3))
        ]
        amb_set = span_mod(amb_cols, m, dim)
        members = sorted(amb_set)
        sub_cols = [rng.choice(members) for _ in range(rng.randint(0, 2))]
        yield m, dim, amb_cols, sub_cols, amb_set
        trials += 1


def assert_snf_contract(mat):
    u, d, v = snf(mat)
    assert (d.rows, d.cols) == (mat.rows, mat.cols)
    assert u @ mat @ v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    for x in diag:
        assert x >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


class TestIntMatrixTypes:
    # each was once converted by int(): [[0.5, 2.9]] was stored as [[0, 2]],
    # so `kernel_mod` solved 2y = 0 mod 4, and "7" read as 7
    def test_refuses_entries_that_are_not_ints(self):
        for make, message in (
                (lambda: IntMatrix.from_rows([[0.5, 2.9]]), "matrix entry 0 is 0.5, not an int"),
                (lambda: IntMatrix(1, 1, ["7"]), "matrix entry 0 is '7', not an int"),
                (lambda: IntMatrix(1, 2, [1, True]), "matrix entry 1 is True, not an int"),
                (lambda: IntMatrix.from_rows([[1], [2.0]]), "matrix entry 1 is 2.0, not an int")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()

    def test_refuses_dimensions_that_are_not_ints(self):
        for rows, cols in ((1.0, 1), (1, "1"), (True, 1)):
            with pytest.raises(ValueError, match="^matrix dimensions .* are not ints$"):
                IntMatrix(rows, cols, [0])

    def test_int_entries_are_kept(self):
        assert IntMatrix(2, 1, iter([-3, 2 ** 70])).entries == (-3, 2 ** 70)


class TestSNF:
    def test_worked_example(self):
        # oracle: gcd row/col steps by hand; det = -8 = +-d1*d2 with d1 = 2
        mat = IntMatrix.from_rows([[2, 4], [6, 8]])
        diag = assert_snf_contract(mat)
        assert diag == [2, 4]

    def test_zero_matrix(self):
        mat = IntMatrix.from_rows([[0]])
        u, d, v = snf(mat)
        assert d == IntMatrix.from_rows([[0]])
        assert u == IntMatrix.identity(1)
        assert v == IntMatrix.identity(1)

    def test_identity_is_fixed(self):
        mat = IntMatrix.identity(3)
        _, d, _ = snf(mat)
        assert d == mat

    def test_random_matrices(self):
        rng = random.Random(20260810)
        for _ in range(120):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            mat = IntMatrix(rows, cols,
                            [rng.randint(-50, 50) for _ in range(rows * cols)])
            assert_snf_contract(mat)

    def test_rectangular_and_empty_shapes(self):
        assert_snf_contract(IntMatrix.from_rows([[3, 0, 0, 7]]))
        assert_snf_contract(IntMatrix(4, 1, [6, 10, 15, 0]))
        # D keeps the shape of a matrix with no rows or no columns
        for rows, cols in [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (0, 0)]:
            assert_snf_contract(IntMatrix(rows, cols, []))
        dec = smith_decomposition(IntMatrix(3, 0, []))
        assert dec.diagonal == ()
        assert dec.v == IntMatrix.identity(0)

    def test_transform_inverses_track(self):
        rng = random.Random(7)
        for _ in range(25):
            mat = IntMatrix(4, 5, [rng.randint(-9, 9) for _ in range(20)])
            dec = smith_decomposition(mat)
            assert abs(dec.u.det()) == abs(dec.v.det()) == 1
            assert dec.u @ mat @ dec.v == dec.d


def reference_shapes():
    """Seeded integer matrices with 0-20 rows and columns, empty ones included.

    Dense, sparse and low-rank (a product through 1-3 inner columns) kinds,
    plus diagonals whose entries do not divide each other, so that the
    reduction runs its pivot swaps, remainders and divisibility fix-ups.
    The 13-20 shapes, dense ones with entries up to 10^6 and sparse ones
    three quarters zero, run long remainder chains and repeated fix-ups.
    """
    rng = random.Random(404)

    def shape(rows, cols, kind, bound, zeros):
        if kind == "dense":
            entries = [rng.randint(-bound, bound) for _ in range(rows * cols)]
        elif kind == "sparse":
            entries = [rng.choice((0,) * zeros + (2, -3, 4, 6, 9))
                       for _ in range(rows * cols)]
        else:
            k = rng.randint(1, 3)
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
            entries = [sum(left[i][t] * right[t][j] for t in range(k))
                       for i in range(rows) for j in range(cols)]
        return IntMatrix(rows, cols, entries)

    mats = [IntMatrix(r, c, []) for r, c in ((0, 0), (0, 5), (7, 0))]
    mats += [diagonal(d) for d in ([2, 3], [6, 4, 9], [0, 5, 10])]
    for _ in range(90):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        mats.append(shape(rows, cols, rng.choice(("dense", "sparse", "low-rank")), 50, 3))
    for kind in ("dense", "sparse", "low-rank") * 3:
        mats.append(shape(rng.randint(13, 20), rng.randint(13, 20), kind, 10 ** 6, 15))
    return mats


class TestReferenceSmith:
    def test_matches_reference_on_every_flag_combination(self):
        # same pivots and operations as the four-transform reduction, so the
        # same integers in U, V and the diagonal
        for mat in reference_shapes():
            dec = smith_decomposition(mat)
            u, _, v, _, diagonal = reference_smith_decomposition(mat)
            assert dec.u == u
            assert dec.v == v
            assert dec.diagonal == diagonal
            assert (dec.rows, dec.cols) == (mat.rows, mat.cols)

    def test_the_shapes_run_every_line(self):
        # a branch that no shape reaches is not pinned by the test above
        def nested(code):
            yield code
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield from nested(const)

        codes = set(nested(smith_decomposition.__code__))  # helpers and genexprs too
        lines = {line for code in codes for *_, line in code.co_lines() if line is not None}
        ran = set()

        def trace_lines(frame, event, arg):
            ran.add(frame.f_lineno)
            return trace_lines

        def trace_calls(frame, event, arg):
            if frame.f_code in codes:
                ran.add(frame.f_lineno)  # a def line runs no line event of its own
                return trace_lines
            return None

        shapes = reference_shapes()
        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            for mat in shapes:
                smith_decomposition(mat)
        finally:
            sys.settrace(previous)
        assert sorted(lines - ran) == []


class TestKernelMod:
    def test_single_relation(self):
        # oracle: x in 0..3 with 2x == 0 (mod 4) -> {0, 2}
        gens = kernel_mod(IntMatrix.from_rows([[2]]), 4)
        assert span_mod([gens.column(j) for j in range(gens.cols)], 4, 1) == {(0,), (2,)}

    def test_zero_matrix_full_basis(self):
        for mat in (IntMatrix(2, 3, [0] * 6), IntMatrix(0, 3, [])):
            gens = kernel_mod(mat, 6)
            assert span_mod([gens.column(j) for j in range(gens.cols)], 6, 3) == \
                span_mod([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 6, 3)

    def test_injective_map_empty(self):
        gens = kernel_mod(IntMatrix.identity(3), 5)
        assert (gens.rows, gens.cols) == (3, 0)
        for m in CONTRACT_MODULI:
            for mat in (IntMatrix.identity(3), IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])):
                gens = kernel_mod(mat, m)
                assert (gens.rows, gens.cols) == (mat.cols, 0)  # one row per column of mat

    def test_against_brute_force(self):
        rng = random.Random(42)
        for trial in range(180):
            m = rng.randint(2, 9) if trial < 150 else (6, 12, 36)[trial % 3]
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4 if m < 12 else 2)
            entries = [rng.randint(-6, 6) for _ in range(rows * cols)]
            mat = IntMatrix(rows, cols, entries)
            gens = kernel_mod(mat, m)
            spanned = span_mod([gens.column(j) for j in range(gens.cols)], m, cols)
            brute = brute_kernel_set(mat.row_lists(), m, cols)
            assert spanned == brute

    def test_generators_are_the_invariant_factors_of_the_kernel(self):
        # the column orders d_1 | d_2 | ..., each >= 2, multiply to the size
        # of the brute-force kernel, and the columns span it: so the sum of
        # the Z/d_i maps onto ker A and is as large, and the d_i are its
        # invariant factors, each with a generator of exactly that order
        nonzero = several = 0
        for m, mat in contract_shapes():
            ker = kernel_mod(mat, m)
            assert ker.rows == mat.cols
            cols = [ker.column(j) for j in range(ker.cols)]
            orders = [m // gcd(m, *col) for col in cols]
            assert all(d >= 2 for d in orders), (m, mat)
            assert all(b % a == 0 for a, b in zip(orders, orders[1:])), (m, mat)
            brute = brute_kernel_set(mat.row_lists(), m, mat.cols)
            assert prod(orders) == len(brute), (m, mat)
            assert span_mod(cols, m, mat.cols) == brute, (m, mat)
            nonzero += ker.cols > 0
            several += ker.cols > 1
        assert nonzero >= 120 and several >= 55, (nonzero, several)

    def test_one_generator_per_invariant_factor(self):
        # one generator per summand per prime once gave 6 columns here
        # (3 of order 2, 3 of order 3), and 3 for [[2, 4]] mod 12
        ker = kernel_mod(IntMatrix(2, 3, [0] * 6), 6)
        assert ker == IntMatrix.identity(3)
        ker = kernel_mod(IntMatrix.from_rows([[2, 4]]), 12)
        assert [ker.column(j) for j in range(ker.cols)] == [(6, 0), (4, 1)]

    def test_rejects_modulus_below_one(self):
        for m in (0, -6):
            with pytest.raises(ValueError, match="^modulus must be >= 1$"):
                kernel_mod(IntMatrix.identity(2), m)


CONTRACT_MODULI = (1, 4, 6, 12, 27, 36, 60)


def contract_shapes():
    """Seeded (m, A) for the kernel contract: 30 random matrices per
    modulus, with repeated, zero and half-modulus entries and as many
    columns as brute force enumerates (m^cols <= 4096), then the 0-row,
    0-column, 0 x 0 and injective shapes."""
    rng = random.Random(1919)
    out = []
    for m in CONTRACT_MODULI:
        widest = max(c for c in range(1, 7) if m ** c <= 4096)
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, widest)
            out.append((m, IntMatrix(rows, cols, [
                rng.choice((0, 0, 1, -1, m // 2, rng.randrange(m), rng.randint(-9, 9)))
                for _ in range(rows * cols)])))
        out += [(m, IntMatrix(0, 2, [])), (m, IntMatrix(2, 0, [])), (m, IntMatrix(0, 0, [])),
                (m, IntMatrix.identity(2)), (m, IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])),
                (m, IntMatrix.from_rows([[1, 2]]))]
    return out


def assert_presentation_agrees(sub, amb, m, members):
    """QuotientPresentation against the presentation over Z of `dense_quotient_presentation`.

    Generator columns are not canonical, so they are compared through the
    reference coordinates: those of the generators must form an automorphism
    of the sum of Z/d_i (d_i gen_i is a relation, and with the relations
    d_i e_i the images span Z^k), so gen_i has exact order d_i.  Then
    coordinates(gen_i) = e_i, the sub generators have coordinates 0, and
    sum c_i gen_i - v is in the sub span for each member v with coordinates c.
    """
    pres = span_presentation(sub, amb, m)
    factors, _, oracle = dense_quotient_presentation(sub, amb, m)
    assert pres.structure.invariant_factors == factors
    gens = pres.generator_columns
    k = len(factors)
    zero = (0,) * k
    for d, gen in zip(factors, gens):
        assert oracle([d * x for x in gen]) == zero
    if k:
        images = [oracle(gen) for gen in gens]
        relations = [[d * (i == j) for i in range(k)] for j, d in enumerate(factors)]
        *_, diagonal = reference_smith_decomposition(
            as_columns(images + relations, k), want_u=False, want_v=False)
        assert diagonal == (1,) * k
    for j, gen in enumerate(gens):
        assert pres.coordinates(gen) == tuple(int(i == j) for i in range(k))
    for j in range(sub.cols):
        assert pres.coordinates(sub.column(j)) == zero
    for vec in members:
        c = pres.coordinates(vec)
        combo = [sum(ci * gen[r] for ci, gen in zip(c, gens)) - vec[r]
                 for r in range(amb.rows)]
        assert oracle(combo) == zero


class TestQuotientStructure:
    def test_cyclic_over_nothing(self):
        s = quotient_structure(IntMatrix(1, 0, []), IntMatrix.identity(1), 4)
        assert s.invariant_factors == (4,)

    def test_known_small_quotient(self):
        # oracle: 16-element (Z/4)^2 modulo the order-2 subgroup <(2,0)>
        amb = IntMatrix.identity(2)
        sub = IntMatrix.from_rows([[2], [0]])
        s = quotient_structure(sub, amb, 4)
        assert s.invariant_factors == (2, 4)
        amb_set = span_mod([(1, 0), (0, 1)], 4, 2)
        sub_set = span_mod([(2, 0)], 4, 2)
        assert coset_order_counts(amb_set, sub_set, 4, 2) == \
            predicted_order_counts(s.invariant_factors, 4)

    def test_quotient_by_itself(self):
        amb = IntMatrix.identity(3)
        s = quotient_structure(amb, amb, 6)
        assert s.invariant_factors == ()

    def test_rejects_modulus_below_one(self):
        with pytest.raises(ValueError, match="^modulus must be >= 1$"):
            quotient_structure(IntMatrix(1, 0, []), IntMatrix.identity(1), 0)

    def test_rejects_generators_of_different_dimensions(self):
        # without the check, the annihilator of an injective ambient is empty
        # and the two rows of sub would present (Z/4)^2
        with pytest.raises(ValueError, match="^sub and ambient generators live in different dimensions$"):
            quotient_structure(IntMatrix(2, 0, []), IntMatrix.identity(1), 4)

    def test_rejects_generator_outside_span(self):
        amb = IntMatrix.from_rows([[2], [0]])
        sub = IntMatrix.from_rows([[1], [0]])
        with pytest.raises(NotInSpanError):
            quotient_structure(sub, amb, 4)

    def test_coordinates_reject_vector_outside_span(self):
        # (1, 0) fails the 2 | y test of the pivot 2; (0, 1) meets a row
        # without pivot, where y must vanish; mod 12, (0, 4) fails only the
        # part mod 3
        amb = IntMatrix.from_rows([[2], [0]])
        for m, outside in ((4, [(1, 0), (0, 1), (3, 0)]),
                           (12, [(1, 0), (0, 1), (3, 0), (0, 4)])):
            pres = span_presentation(IntMatrix(2, 0, []), amb, m)
            pres.coordinates((2, 0))  # inside the span: no error
            for vec in outside:
                with pytest.raises(NotInSpanError):
                    pres.coordinates(vec)

    def test_against_coset_counting(self):
        for m, dim, amb_cols, sub_cols, amb_set in random_quotient_inputs():
            sub_set = span_mod(sub_cols, m, dim)
            s = quotient_structure(
                as_columns(sub_cols, dim),
                as_columns(amb_cols, dim),
                m,
            )
            assert s.order == len(amb_set) // len(sub_set)
            assert coset_order_counts(amb_set, sub_set, m, dim) == \
                predicted_order_counts(s.invariant_factors, m)

    def test_presentation_agrees_with_reference(self):
        for m, dim, amb_cols, sub_cols, amb_set in random_quotient_inputs():
            assert_presentation_agrees(
                as_columns(sub_cols, dim),
                as_columns(amb_cols, dim),
                m, sorted(amb_set)[:40])

    def test_presentation_agrees_with_reference_larger(self):
        # dimensions up to 10, beyond what the coset counting can enumerate;
        # the composite moduli run one prime-power part per prime
        rng = random.Random(2026)
        for trial in range(70):
            m = rng.choice([4, 8, 9, 16, 25, 27]) if trial < 40 else (6, 12, 36)[trial % 3]
            dim = rng.randint(2, 10)
            k = rng.randint(1, dim + 2)
            amb = as_columns(
                [[rng.choice((0, 0, 1, -1, rng.randint(0, m - 1))) for _ in range(dim)]
                 for _ in range(k)], dim)

            def member():
                return int_mat_vec(amb, [rng.randint(0, m - 1) for _ in range(k)])

            sub = as_columns([member() for _ in range(rng.randint(0, 3))], dim)
            assert_presentation_agrees(sub, amb, m, [member() for _ in range(5)])

    def test_presentation_generators_and_coordinates(self):
        amb = IntMatrix.identity(2)
        sub = IntMatrix.from_rows([[2], [0]])
        pres = span_presentation(sub, amb, 4)
        assert pres.structure.invariant_factors == (2, 4)
        assert len(pres.generator_columns) == 2
        for col, order in zip(pres.generator_columns, (2, 4)):
            coords = pres.coordinates(col)
            # the generator is its own class, with coordinate 1 in its slot
            assert list(coords).count(1) == 1
            scaled = [order * x for x in col]
            assert all(c == 0 for c in pres.coordinates(scaled))


def logged_and_ride_along(seed):
    """60 seeded reductions of a random A over Z/p^e, by `_reduce` on A
    alone and by `uit_reduce` on [A | I] with U^-1 and a log.  Asserts
    that both give the same pivots, the same reduced A and the same log,
    then yields (rng, q, log, U, columns of U^-1) from them."""
    rng = random.Random(seed)
    for trial in range(60):
        p, e = rng.choice([(2, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 1)])
        q = p ** e
        n, width = rng.randint(1, 7), rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, p, rng.randrange(q))) for _ in range(width)]
             for _ in range(n)]
        ride = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
        vals, log = _reduce(a, p, e)
        dense_log = []
        dense_vals, uit = uit_reduce(ride, width, p, e, u_inv=True, log=dense_log)
        assert (vals, log) == (dense_vals, dense_log), trial
        assert a == [row[:width] for row in ride], trial
        yield rng, q, log, [row[width:] for row in ride], uit


class TestOperationLog:
    """`_reduce` on A alone against `uit_reduce` on [A | I], which carries
    U as an identity block and U^-1 densely: the log it returns must
    replay to that U and U^-1."""

    def test_undo_of_u_is_the_identity(self):
        # undoing the log on column j of U gives e_j, and on e_j gives
        # column j of U^-1
        for rng, q, log, u, uit in logged_and_ride_along(13):
            n = len(u)
            for j in range(n):
                e_j = [int(i == j) for i in range(n)]
                assert _undo(log, [row[j] for row in u], q) == e_j, j
                assert _undo(log, list(e_j), q) == uit[j], j

    def test_apply_ut_gives_the_rows_of_u(self):
        # replaying the log backwards and transposed on e_j gives row j of
        # U, and on any y gives U^T y
        for rng, q, log, u, uit in logged_and_ride_along(14):
            n = len(u)
            for j in range(n):
                assert _apply_ut(log, [int(i == j) for i in range(n)], q) == u[j], j
            y = [rng.randrange(q) for _ in range(n)]
            assert _apply_ut(log, list(y), q) == [
                sum(yt * urow[i] for yt, urow in zip(y, u)) % q for i in range(n)]

    def test_quotients_match_dense_path(self):
        rng = random.Random(313)
        for trial in range(120):
            m = (4, 8, 9, 12, 25, 27, 36, 60)[trial % 8]
            dim = rng.randint(1, 9)
            k = rng.randint(1, dim + 2)
            amb = as_columns(
                [[rng.choice((0, 0, 1, -1, rng.randint(0, m - 1))) for _ in range(dim)]
                 for _ in range(k)], dim)

            def member():
                return int_mat_vec(amb, [rng.randint(0, m - 1) for _ in range(k)])

            sub = as_columns([member() for _ in range(rng.randint(0, 4))], dim)
            vectors = ([amb.column(j) for j in range(k)] + [sub.column(j) for j in range(sub.cols)]
                       + [member() for _ in range(5)])
            logged, dense = both_quotient_paths(sub, amb, m, vectors)
            assert logged == dense, (trial, m)


KERNEL_MODULI = (2, 4, 8, 9, 12, 36, 72, 101)


def kernel_columns(a_rows, dim, m):
    """Generators of ker A mod m from U riding along, not from the code under test."""
    ker = ride_along_kernel(as_matrix(a_rows, dim), m)
    return [ker.column(j) for j in range(ker.cols)]


def combination(columns, coeffs, dim, m):
    return tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) % m for i in range(dim))


def random_kernel_inputs():
    """Seeded (m, dim, A rows, B rows, kernel generators): A random, with
    some columns repeated or zero, and B = K R, K the generators of ker A
    from `kernel_columns` and R random, so im B lies inside ker A."""
    rng = random.Random(1606)
    for trial in range(160):
        m = KERNEL_MODULI[trial % len(KERNEL_MODULI)]
        dim = rng.randint(1, 7)
        a_rows = [[rng.choice((0, 0, 1, -1, m // 2, rng.randrange(m))) for _ in range(dim)]
                  for _ in range(rng.randint(1, 6))]
        ker = kernel_columns(a_rows, dim, m)
        n_b = rng.randint(0, 4)
        b_cols = [combination(ker, [rng.randrange(m) for _ in ker], dim, m) for _ in range(n_b)]
        b_rows = [[col[i] for col in b_cols] for i in range(dim)]
        yield m, dim, a_rows, b_rows, ker


def kernel_edge_inputs():
    """(m, dim, A rows, B rows, kernel generators) at the edges: a zero-row A,
    a zero-column B, an injective A, m = 1 and dim = 0."""
    out = []
    for m in KERNEL_MODULI:
        out.append((m, 3, [], [[2, 0], [0, 0], [0, m - 1]], kernel_columns([], 3, m)))
        a_rows = [[1, 1, 0], [0, 2, 2]]
        out.append((m, 3, a_rows, [[], [], []], kernel_columns(a_rows, 3, m)))
        out.append((m, 2, [[1, 0], [0, 1], [1, 1]], [[0], [0]], []))
    out.append((1, 2, [[1, 0]], [[1], [0]], []))
    out.append((6, 0, [[], []], [], []))
    return out


def assert_kernel_presentation(m, dim, a_rows, b_rows, ker, rng):
    """`QuotientPresentation` against the old pair: equal invariant factors,
    generator j has coordinates e_j, every column of B has coordinates 0,
    and coordinates add modulo the factors."""
    pres = QuotientPresentation(a_rows, b_rows, m)
    factors = pres.structure.invariant_factors
    assert factors == old_pair_quotient(a_rows, b_rows, m).structure.invariant_factors
    assert (pres.modulus, pres.dim) == (m, dim)
    k = len(factors)
    for j, gen in enumerate(pres.generator_columns):
        assert pres.coordinates(gen) == tuple(int(i == j) for i in range(k))
    for col in zip(*b_rows):
        assert pres.coordinates(col) == (0,) * k
    for _ in range(3):
        x = combination(ker, [rng.randrange(m) for _ in ker], dim, m)
        y = combination(ker, [rng.randrange(m) for _ in ker], dim, m)
        total = pres.coordinates([a + b for a, b in zip(x, y)])
        assert total == tuple((a + b) % d for a, b, d in
                              zip(pres.coordinates(x), pres.coordinates(y), factors))
    return pres


def outside_kernel(a_rows, dim, m, rng):
    """A vector x with A x != 0 mod m, or None when ker A is everything."""
    if not any(x % m for row in a_rows for x in row):
        return None
    while True:
        x = [rng.randrange(m) for _ in range(dim)]
        if any(sum(a * b for a, b in zip(row, x)) % m for row in a_rows):
            return x


class TestKernelQuotient:
    """ker A / im B from one elimination, against the ride-along kernel
    followed by the span quotient with its own ambient reduction
    (`old_pair_quotient`)."""

    def test_random_against_old_pair(self):
        rng = random.Random(7)
        nontrivial = 0
        for m, dim, a_rows, b_rows, ker in random_kernel_inputs():
            pres = assert_kernel_presentation(m, dim, a_rows, b_rows, ker, rng)
            nontrivial += not pres.structure.is_trivial
        assert nontrivial >= 80

    def test_edge_cases_against_old_pair(self):
        rng = random.Random(8)
        for m, dim, a_rows, b_rows, ker in kernel_edge_inputs():
            assert_kernel_presentation(m, dim, a_rows, b_rows, ker, rng)
        # an injective A leaves nothing; a zero-row A and a zero-column B leave ker A
        assert QuotientPresentation([[1, 0], [0, 1]], [[0], [0]], 12).structure.is_trivial
        assert QuotientPresentation([], [[], []], 12).structure == AbGroupStructure([12, 12])
        assert QuotientPresentation([[2, 0]], [[], []], 4).structure == AbGroupStructure([2, 4])

    def test_column_of_b_outside_the_kernel_raises(self):
        rng = random.Random(9)
        checked = 0
        for m, dim, a_rows, b_rows, ker in random_kernel_inputs():
            x = outside_kernel(a_rows, dim, m, rng)
            if x is None:
                continue
            with pytest.raises(NotInSpanError):
                QuotientPresentation(a_rows, [row + [a] for row, a in zip(b_rows, x)], m)
            checked += 1
        assert checked >= 100

    def test_vector_outside_the_kernel_raises(self):
        rng = random.Random(10)
        checked = 0
        for m, dim, a_rows, b_rows, ker in random_kernel_inputs():
            x = outside_kernel(a_rows, dim, m, rng)
            if x is None:
                continue
            pres = QuotientPresentation(a_rows, b_rows, m)
            with pytest.raises(NotInSpanError):
                pres.coordinates(x)
            checked += 1
        assert checked >= 100

    def test_functionals_match_dense_path(self):
        # the coordinate functionals read off the log against the columns
        # of the dense U^-1 of `uit_reduce`: the same presentation
        rng = random.Random(11)
        for m, dim, a_rows, b_rows, ker in random_kernel_inputs():
            vectors = [combination(ker, [rng.randrange(m) for _ in ker], dim, m)
                       for _ in range(4)]
            logged, dense = both_kernel_paths(a_rows, b_rows, m, vectors)
            assert logged == dense, (m, a_rows, b_rows)


B_CHECK_MODULI = (1, 2, 4, 6, 12, 27, 36, 60)


def b_check_inputs():
    """Seeded (m, A rows, B rows) per modulus: 40 random A, every other one
    with a column of B drawn at random (mostly outside ker A), the rest
    with B = K R inside ker A; then a 0-row A, a 0-column B and dim = 0."""
    rng = random.Random(2020)
    for m in B_CHECK_MODULI:
        for trial in range(40):
            dim = rng.randint(1, 6)
            a_rows = [[rng.choice((0, 0, 1, -1, m // 2, rng.randrange(m))) for _ in range(dim)]
                      for _ in range(rng.randint(0, 5))]
            ker = kernel_columns(a_rows, dim, m)
            b_cols = [combination(ker, [rng.randrange(m) for _ in ker], dim, m)
                      for _ in range(rng.randint(0, 3))]
            if trial % 2:
                b_cols.insert(rng.randint(0, len(b_cols)), [rng.randrange(m) for _ in range(dim)])
            yield m, a_rows, [[col[i] for col in b_cols] for i in range(dim)]
        yield m, [], [[1, 0], [0, m - 1]]
        yield m, [[1, 2, 0]], [[], [], []]
        yield m, [[], []], []


class TestConstructorChecks:
    """The one constructor rejects malformed shapes, and checks im B inside
    ker A column by column exactly when the matrix check A B = 0 fails."""

    def test_row_of_a_with_the_wrong_length(self):
        # each once answered silently (trivial group, Z/4) or raised IndexError
        for a_rows, b_rows, m in (([[1]], [[0], [0]], 4), ([[1]], [[0], [0]], 1),
                                  ([[1, 2, 3]], [[0], [0]], 4), ([[0, 0], [1]], [[0], [0]], 4)):
            with pytest.raises(ValueError, match="^a row of A does not have 2 entries"):
                QuotientPresentation(a_rows, b_rows, m)

    def test_rows_of_b_differ_in_length(self):
        with pytest.raises(ValueError, match="^the rows of B differ in length$"):
            QuotientPresentation([[0, 0]], [[1], [0, 0]], 4)

    def test_modulus_below_one(self):
        for m in (0, -4):
            with pytest.raises(ValueError, match="^modulus must be >= 1$"):
                QuotientPresentation([[1]], [[0]], m)

    def test_b_check_agrees_with_the_matrix_product(self):
        raised = kept = 0
        for m, a_rows, b_rows in b_check_inputs():
            if image_in_kernel(a_rows, b_rows, m):
                QuotientPresentation(a_rows, b_rows, m)
                kept += 1
            else:
                with pytest.raises(NotInSpanError, match=f"^a column of B is not in ker A mod {m}$"):
                    QuotientPresentation(a_rows, b_rows, m)
                raised += 1
        assert raised >= 100 and kept >= 150, (raised, kept)


class TestAbGroupStructure:
    def test_validation(self):
        AbGroupStructure([2, 4, 8])
        with pytest.raises(ValueError):
            AbGroupStructure([4, 2])
        with pytest.raises(ValueError):
            AbGroupStructure([1, 2])

    def test_order_and_exponent(self):
        s = AbGroupStructure([2, 6])
        assert s.invariant_factors == (2, 6)
        assert s.order == 12
        assert s.exponent == 6
        assert not s.is_trivial

    def test_str(self):
        assert str(AbGroupStructure()) == "0"
        assert str(AbGroupStructure([2, 4])) == "Z/2 x Z/4"
