"""Independent brute-force oracles for the test suite.

The brute-force oracles go through neither the Smith-form nor the cohomology
code paths: they read only the raw data of their inputs (Cayley tables,
action matrices, matrix entries) and enumerate.  They are deliberately slow
and only run at the small sizes the properties quantify over.  The
exceptions are the earlier, slower formulas kept as references for their
fast replacements: `full_cochain_h1` and `cayley_h1` for the H^1 on a
presentation, `_cayley_system` (the Cayley-graph conditions, built edge
by edge) for `_fox_system` on `_cayley_presentation`,
`cayley_restriction_kernel` for the restriction kernels read from
ker N_g / (g-1)M on cyclic subgroups and solved on the maximal members of
a family only, `solved_restriction_kernel` (every member solved by
elimination, as before a family containing G was known to give 0) for
that rule of `_restriction_kernel`,
`expand_along_tree` (each class expanded to all of G, edge by edge) for
`H1Result.cocycle`, and `expanded_res_h1` (each class of G expanded, then
read at H's generators) for `res_h1`, which walks G's tree from them,
`dense_mat_mul_mod` for the sparse module products,
`triple_scan_is_associative` (every triple of the table) for Light's test
in `Group`,
`all_pairs_twist_is_multiplicative` (every pair of elements) for the
twist check of `dual_module` on (generator, element) pairs,
`dense_augmentation_exactness` for the O(n r) exactness check of the
augmentation sequence,
`dense_group_ring_action` and `dense_augmentation_ideal_action` for the
sparse rows of the group ring and the augmentation ideal,
`dense_quotient_presentation` (the presentation over Z with m*I padding, on
the reference reduction) for the presentation over Z/p^e,
`ride_along_kernel_vectors` (U riding along [A^T | I], one generator per
summand per prime, as `kernel_mod` once returned them) for the kernels
that seeded inputs and the oracles below are built from, so that none of
them rests on `QuotientPresentation`,
`old_pair_quotient` (the ride-along kernel, then the span quotient
`SpanQuotientPresentation` with its own ambient reduction) for
`QuotientPresentation`, which reads ker A / im B off one reduction,
`image_in_kernel` (A B = 0 as one sparse matrix product) for its check of
B column by column,
`uit_reduce` and `UitPrimePowerQuotient` (a dense U^-1 updated on every
row operation, and U from an identity block) for the coordinate
functionals and the generators replayed from the operation log,
`reference_smith_decomposition` for the Smith reduction that carries
its transforms as augmented rows and columns,
`two_branch_ellth_root` (a bit-flip lift for ell = 2 beside the digit
search for odd ell) for the one Hensel loop of `ellth_root_in_zell`,
`is_ellth_power_residue` (Euler's criterion behind checks of p, ell and q)
for the residue test that `find_q` applies to each candidate,
and `oracle_jsonify` (a report value converted to plain JSON values, then
written by `json.dumps(..., indent=2)`) for the one-pass writer
`_canonical_json`.
"""

from itertools import product
from operator import mul
from unittest import mock

from tameapprox.cohomology import (
    ShaResult,
    _differences,
    _restriction_rows,
    _subgroup_h1,
    coboundary0_matrix,
    coboundary1_matrix,
    h1,
)
from tameapprox.finite_groups import full_subgroup
from tameapprox.primes import is_prime
from tameapprox import zmod_linalg
from tameapprox.g_modules import restrict
from tameapprox.zmod_linalg import (
    AbGroupStructure,
    IntMatrix,
    NotInSpanError,
    QuotientPresentation,
    _crt_lift,
    _identity_rows,
    _PrimePowerQuotient,
    _undo,
)


def all_vectors(m, r):
    return [tuple(v) for v in product(range(m), repeat=r)]


def mat_vec(mat, vec, m):
    return tuple(sum(a * v for a, v in zip(row, vec)) % m for row in mat)


def vec_add(u, v, m):
    return tuple((a + b) % m for a, b in zip(u, v))


def vec_sub(u, v, m):
    return tuple((a - b) % m for a, b in zip(u, v))


def brute_kernel_set(rows, m, cols):
    """{ x in (Z/m)^cols : rows @ x == 0 mod m } by full enumeration."""
    out = set()
    for x in product(range(m), repeat=cols):
        if all(sum(a * v for a, v in zip(row, x)) % m == 0 for row in rows):
            out.add(x)
    return out


def span_mod(columns, m, dim):
    """Subgroup of (Z/m)^dim generated by the given columns, by closure."""
    zero = (0,) * dim
    elems = {zero}
    frontier = [zero]
    gens = [tuple(int(x) % m for x in col) for col in columns]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = vec_add(v, g, m)
                if w not in elems:
                    elems.add(w)
                    new.append(w)
        frontier = new
    return elems


def coset_order_counts(amb_elems, sub_elems, m, dim):
    """For each k, the number of cosets x with k*x in the subgroup.

    The counting function k -> ##{x : kx in S} determines a finite abelian
    group: it equals prod_i gcd(d_i, k) over the invariant factors.
    """
    sub = set(sub_elems)
    quotient_order = len(amb_elems) // len(sub)
    counts = {}
    for k in range(1, m + 1):
        c = 0
        for x in amb_elems:
            if tuple((k * xi) % m for xi in x) in sub:
                c += 1
        assert c % len(sub) == 0
        counts[k] = c // len(sub)
    assert counts[m] == quotient_order
    return counts


def predicted_order_counts(invariant_factors, m):
    from math import gcd

    out = {}
    for k in range(1, m + 1):
        c = 1
        for d in invariant_factors:
            c *= gcd(d, k)
        out[k] = c
    return out


def spanning_tree(group, gens):
    """Edges (x, s, x*s) discovering every element from the identity, or None."""
    e = group.identity
    known = {e}
    edges = []
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                xs = group.table[x][s]
                if xs not in known:
                    known.add(xs)
                    edges.append((x, s, xs))
                    new.append(xs)
        frontier = new
    if len(known) != group.order:
        return None
    return edges


def brute_cocycles(group, module, count_only=False):
    """All 1-cocycles z: G -> M, by enumerating values on a generating set.

    Each candidate assignment is extended along a spanning tree via
    z(x*s) = z(x) + x.z(s) and then the cocycle identity is verified on
    every pair, so a wrong generating set cannot create false positives.
    """
    n, r, m = group.order, module.rank, module.modulus
    gens = list(group.generating_set())
    tree = spanning_tree(group, gens)
    if tree is None:
        gens = [x for x in range(n) if x != group.identity]
        tree = spanning_tree(group, gens)
    vectors = all_vectors(m, r)
    action = [module.act_matrix(g) for g in range(n)]
    table = group.table
    e = group.identity
    found = [] if not count_only else None
    count = 0
    gen_pos = {s: i for i, s in enumerate(gens)}
    for assignment in product(vectors, repeat=len(gens)):
        z = [None] * n
        z[e] = (0,) * r
        for x, s, xs in tree:
            z[xs] = vec_add(z[x], mat_vec(action[x], assignment[gen_pos[s]], m), m)
        ok = True
        for g in range(n):
            zg = z[g]
            actg = action[g]
            for h in range(n):
                if z[table[g][h]] != vec_add(zg, mat_vec(actg, z[h], m), m):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
            if found is not None:
                found.append(tuple(z))
    return count if count_only else found


def all_pairs_is_cocycle(group, module, rep):
    """z(gh) == z(g) + g.z(h) mod m on every one of the |G|^2 pairs."""
    n, m = group.order, module.modulus
    return all(
        tuple(x % m for x in rep[group.table[g][h]])
        == vec_add(rep[g], mat_vec(module.act_matrix(g), rep[h], m), m)
        for g in range(n) for h in range(n)
    )


def triple_scan_is_associative(table):
    """(xy)z == x(yz) for every triple of a Cayley table."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for z in range(n):
                if table[xy][z] != table[x][table[y][z]]:
                    return False
    return True


def all_pairs_twist_is_multiplicative(group, twist, m):
    """twist(a) twist(b) == twist(ab) mod m for every pair of elements."""
    n = group.order
    return all((twist[a] * twist[b] - twist[group.table[a][b]]) % m == 0
               for a in range(n) for b in range(n))


def brute_coboundaries(group, module):
    """{ g -> g.a - a : a in M } as a set of flattened tuples."""
    n, r, m = group.order, module.rank, module.modulus
    out = set()
    for a in all_vectors(m, r):
        cob = tuple(vec_sub(mat_vec(module.act_matrix(g), a, m), a, m) for g in range(n))
        out.add(cob)
    return out


def is_brute_coboundary(group, module, rep):
    n, r, m = group.order, module.rank, module.modulus
    for a in all_vectors(m, r):
        if all(
            tuple(rep[g]) == vec_sub(mat_vec(module.act_matrix(g), a, m), a, m)
            for g in range(n)
        ):
            return True
    return False


def brute_h1_order(group, module):
    z = brute_cocycles(group, module, count_only=True)
    b = len(brute_coboundaries(group, module))
    assert z % b == 0
    return z // b


def full_cochain_h1(group, module):
    """Structure of H^1(G, M) = Z^1/B^1 over all cochains G -> M.

    The full coboundary matrices have |G|^2 r x |G| r and |G| r x r entries;
    `cohomology.h1` solves on the generator values instead and must agree.
    """
    m = module.modulus
    zgens = ride_along_kernel(coboundary1_matrix(group, module), m)
    return SpanQuotientPresentation(coboundary0_matrix(group, module), zgens, m).structure


def expand_along_tree(group, module, tree, x):
    """The cocycle with generator values x, per element, along the tree edges
    (g, i, g s_i) in the order listed: z(g s_i) = z(g) + g.x_i."""
    r, m = module.rank, module.modulus
    z = [None] * group.order
    z[group.identity] = (0,) * r
    for g, i, gs in tree:
        gx = module.act(g, x[i * r : (i + 1) * r])
        z[gs] = tuple((a + b) % m for a, b in zip(z[g], gx))
    return tuple(z)


def expanded_res_h1(group, sub, module):
    """`res_h1` read through full expansions: each generator of h1(G, M)
    expanded to all |G| elements, read at the generators of H, and put in
    the coordinates of H^1(H, M); a list of rows."""
    full = _subgroup_h1(module, full_subgroup(group))
    reps = [expand_along_tree(group, module, full.tree, col)
            for col in h1(group, module).presentation.generator_columns]
    local = _subgroup_h1(module, sub)
    pres = local.presentation
    images = [pres.coordinates([x for s in local.generators for x in rep[s]]) for rep in reps]
    return [[image[i] for image in images] for i in range(len(pres.structure.invariant_factors))]


def _cayley_system(group, module, gens):
    """Cocycle conditions on the generator values x = (z(s) for s in gens).

    A BFS over the Cayley graph of gens, from the identity, writes each
    z(h) of the subgroup H = <gens> as an r x (|gens| r) matrix via
    z(hs) = z(h) + h.x_s.  An edge h -> hs reaching a visited vertex gives a
    second expression for z(hs); their difference gives r rows of d1 in
    residues [0, m), of which zero and repeated rows are dropped.
    Conditions on every edge make z a cocycle on H: z(hk) = z(h) + h.z(k)
    then holds for k = s, and passes from k to ks.  Returns (d1, tree) with
    tree the BFS edges (h, i, hs), s = gens[i].
    """
    r, m = module.rank, module.modulus
    dim = len(gens) * r
    zmat = [None] * group.order
    zmat[group.identity] = [[0] * dim for _ in range(r)]
    tree = []
    rows = {}  # distinct nonzero constraint rows, in the order found
    queue = [group.identity]
    for g in queue:  # the queue grows while it is walked
        act = module.action_rows[g]
        for i, s in enumerate(gens):
            gs = group.table[g][s]
            base = i * r
            cand = []
            for zrow, arow in zip(zmat[g], act):
                row = list(zrow)
                for j, a in arow:
                    row[base + j] = (row[base + j] + a) % m
                cand.append(row)
            if zmat[gs] is None:
                zmat[gs] = cand
                tree.append((g, i, gs))
                queue.append(gs)
                continue
            for crow, zrow in zip(cand, zmat[gs]):
                diff = tuple((x - y) % m for x, y in zip(crow, zrow))
                if any(diff):
                    rows[diff] = None
    d1 = IntMatrix(len(rows), dim, [x for row in rows for x in row])
    return d1, tree


def cayley_h1(group, module):
    """(structure, per-element representatives, coordinates function) of H^1
    from the Cayley-graph system `_cayley_system` on `group.generating_set()`."""
    m = module.modulus
    gens = group.generating_set()
    d1, tree = _cayley_system(group, module, gens)
    pres = old_pair_quotient(d1.row_lists(), _differences(module, gens), m)
    reps = [expand_along_tree(group, module, tree, col) for col in pres.generator_columns]

    def coordinates(rep):
        return pres.coordinates([x for s in gens for x in rep[s]])

    return pres.structure, reps, coordinates


def cayley_restriction_kernel(group, module, subgroups):
    """Structure of the joint kernel of H^1(G, M) -> H^1(H, M|_H) over `subgroups`.

    Every H^1 here is `cayley_h1`, on G and on each restricted module, and a
    class restricts through the coordinates of its representative read on H.
    """
    m = module.modulus
    structure, reps, _ = cayley_h1(group, module)
    factors = structure.invariant_factors
    rows = []
    for sub in subgroups:
        res = restrict(module, sub)
        target, _, coordinates = cayley_h1(res.group, res)
        images = [coordinates([rep[x] for x in sub.elements]) for rep in reps]
        for i, delta in enumerate(target.invariant_factors):
            rows.append([m // delta * image[i] for image in images])
    relations = [[d if i == j else 0 for j in range(len(factors))]
                 for i, d in enumerate(factors)]
    return old_pair_quotient(rows, relations, m).structure


def solved_restriction_kernel(group, module, subgroups):
    """`_restriction_kernel` as a ShaResult, solved by elimination on the rows
    of `res_h1` for every member, G included, so without its rule that a
    family containing G has kernel 0 and solves nothing."""
    m = module.modulus
    full = h1(group, module)
    factors = full.structure.invariant_factors
    rows = []
    for sub in subgroups:
        res_rows, deltas = _restriction_rows(group, sub, module)
        rows += [[m // delta * x for x in row] for row, delta in zip(res_rows, deltas)]
    relations = [[d if i == j else 0 for j in range(len(factors))]
                 for i, d in enumerate(factors)]
    pres = QuotientPresentation(rows, relations, m)
    entries = list(zip(*full.presentation.generator_columns))
    gens = tuple(tuple(sum(map(mul, col, xs)) % m for xs in entries)
                 for col in pres.generator_columns)
    return ShaResult(pres.structure, gens)


def brute_generated(group, gens):
    """The subgroup generated by `gens`, by multiplying all pairs until nothing is new."""
    elements = {group.identity} | set(gens)
    while True:
        grown = elements | {group.table[a][b] for a in elements for b in elements}
        if grown == elements:
            return elements
        elements = grown


def evaluate_word(group, gens, word):
    """The element that the word (positions into `gens`) multiplies out to."""
    x = group.identity
    for i in word:
        x = group.table[x][gens[i]]
    return x


def dense_group_ring_action(group, m):
    """The matrices of (Z/m)[G], built densely: g sends basis vector h to gh."""
    n = group.order
    mats = []
    for g in range(n):
        mat = [[0] * n for _ in range(n)]
        for h in range(n):
            mat[group.table[g][h]][h] = 1
        mats.append(tuple(tuple(x % m for x in row) for row in mat))
    return tuple(mats)


def dense_augmentation_ideal_action(group, m):
    """The matrices of the augmentation ideal on the basis (h - 1), h != e,
    built densely column by column from g(h-1) = (gh-1) - (g-1)."""
    n, e = group.order, group.identity
    basis = [g for g in range(n) if g != e]
    pos = {g: i for i, g in enumerate(basis)}
    r = n - 1
    mats = []
    for g in range(n):
        mat = [[0] * r for _ in range(r)]
        for i, h in enumerate(basis):
            gh = group.table[g][h]
            if gh != e:
                mat[pos[gh]][i] += 1
            if g != e:
                mat[pos[g]][i] -= 1
        mats.append(tuple(tuple(x % m for x in row) for row in mat))
    return tuple(mats)


def dense_augmentation_exactness(incl, aug, m):
    """Whether 0 -> I -> (Z/m)[G] -> Z/m -> 0 is exact, by elimination:
    incl has no kernel mod m, aug o incl = 0, and im incl is all of ker aug."""
    if ride_along_kernel(incl, m).cols != 0:
        return False
    if any(x % m for x in (aug @ incl).entries):
        return False
    return SpanQuotientPresentation(incl, ride_along_kernel(aug, m), m).structure.is_trivial


def dense_mat_mul_mod(a, b, m):
    """a @ b mod m over every (row, column) pair, zeros included."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % m for col in bt)
        for row in a
    )


def diagonal(diag):
    """The square IntMatrix with `diag` on its diagonal."""
    n = len(diag)
    return IntMatrix(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])


def hstack(a, b):
    """[a | b] for matrices with the same number of rows."""
    assert a.rows == b.rows
    return IntMatrix.from_rows([a.row(i) + b.row(i) for i in range(a.rows)])


def dense_quotient_presentation(sub_gens, amb_gens, m):
    """(factors, generator columns, coordinates function) of span(amb)/span(sub) mod m.

    The full products: U_amb @ [S | mI] for the relation coordinates, and all
    of W' = U_amb^-1 @ D @ U_rel^-1, whose columns with delta_i >= 2 are the
    generators.  Assumes m >= 2, a positive dimension and S inside the
    ambient span.
    """
    dim = amb_gens.rows
    m_block = diagonal([m] * dim)
    flags = dict(want_u=True, want_u_inv=True, want_v=False)
    u_amb, u_amb_inv, _, _, diag = reference_smith_decomposition(
        hstack(amb_gens, m_block), **flags)
    diag = diag[:dim]
    y = u_amb @ hstack(sub_gens, m_block)
    coords = [[y[i, j] // diag[i] for j in range(y.cols)] for i in range(dim)]
    u_rel, u_rel_inv, _, _, delta = reference_smith_decomposition(
        IntMatrix.from_rows(coords), **flags)
    delta = delta[:dim]
    w_prime = u_amb_inv @ diagonal(diag) @ u_rel_inv
    factors = tuple(d for d in delta if d >= 2)
    gens = tuple(tuple(x % m for x in w_prime.column(i))
                 for i, d in enumerate(delta) if d >= 2)

    def coordinates(vector):
        c = [yi // di for yi, di in zip(int_mat_vec(u_amb, vector), diag)]
        full = int_mat_vec(u_rel, c)
        return tuple(full[i] % d for i, d in enumerate(delta) if d >= 2)

    return factors, gens, coordinates


def uit_reduce(rows, width, p, e, *, u_inv=False, log=None):
    """Smith reduction over Z/p^e of the first `width` columns of `rows`, in place.

    The rows hold residues in [0, p^e); entries past `width` only ride
    along with the row operations, so a block [A | I] there ends as U.
    Step t takes the entry of least p-valuation v in rows t.., lowest
    (row, col) on ties, swaps its row to t and scales it by a unit inverse
    so the pivot is exactly p^v; then each later row with x in the pivot
    column drops (x / p^v) times it.  Every remaining entry keeps
    valuation >= v, so the pivot also divides the rest of its own row, and
    the column operations that would clear it touch no other row: they
    are left out, as no caller needs V.  Rows past the last step are zero
    in A.

    Returns (vals, uit): U A V has p^vals[t] in row t for t < len(vals),
    and zeros elsewhere.  uit lists the columns of U^-1 when asked for
    (undoing row_i -= f row_t adds f times column i to column t).  When
    `log` is a list, step t appends its row operations to it as
    `zmod_linalg._reduce` logs them: (t, bi, unit, ops), swap rows t and
    bi, scale row t by unit^-1, then row_i -= f row_t for each (i, f) in ops.
    """
    q = p ** e
    R = len(rows)
    uit = _identity_rows(R) if u_inv else None
    vals = []
    for t in range(R):
        best, bi, bc = e, -1, -1
        for i in range(t, R):
            row = rows[i]
            if not any(row[:width]):
                continue
            for j in range(width):
                x = row[j]
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
        if uit is not None:
            uit[t], uit[bi] = uit[bi], uit[t]
        prow = rows[t]
        pv = p ** best
        unit = prow[bc] // pv
        if unit != 1:
            inv = pow(unit, -1, q)
            prow = rows[t] = [x * inv % q for x in prow]
            if uit is not None:
                uit[t] = [x * unit % q for x in uit[t]]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        ops = []
        for i in range(t + 1, R):
            row = rows[i]
            x = row[bc]
            if x:
                f = x // pv
                for j, y in nz:
                    row[j] = (row[j] - f * y) % q
                if uit is not None:
                    uit[t] = [(a + f * b) % q for a, b in zip(uit[t], uit[i])]
                ops.append((i, f))
        if log is not None:
            log.append((t, bi, unit, ops))
        vals.append(best)
    return vals, uit


def ride_along_kernel_vectors(at_rows, width, m):
    """Generators of ker A mod m with U riding along: A has `width` rows and
    its columns are `at_rows`; per prime power q of m, `uit_reduce` on
    [A^T | I] ends the identity block as U, and each row u_t of U scaled by
    s_t < q (s_t = p^(e - v_t) for a pivot row, 1 past the pivots) is
    lifted to Z/m by CRT: one generator per summand per prime, t ascending,
    one prime after another."""
    vecs = []
    if m > 1:
        for p, e in trial_division_factor(m).items():
            q = p ** e
            lift = _crt_lift(m, q)
            rows = [[x % q for x in col] + urow
                    for col, urow in zip(at_rows, _identity_rows(len(at_rows)))]
            vals, _ = uit_reduce(rows, width, p, e)
            for t, row in enumerate(rows):
                s = p ** (e - vals[t]) if t < len(vals) else 1
                if s < q:
                    vecs.append([x * s % q * lift % m for x in row[width:]])
    return vecs


def ride_along_kernel(mat, m):
    """ker mat mod m as the IntMatrix whose columns are the
    `ride_along_kernel_vectors` of the IntMatrix `mat`."""
    at_rows = list(zip(*mat._data)) if mat.rows else [()] * mat.cols
    return as_columns(ride_along_kernel_vectors(at_rows, mat.rows, m), mat.cols)


class SpanPrimePowerQuotient:
    """The p-primary part of span(amb)/span(sub), over Z/q, q = p^e, as
    `zmod_linalg` computed every quotient before its kernel routine.

    The ambient step reduces A with no padding: U A V has pivots p^v_t in
    rows t < r, so x lies in span(A) iff y = Ux has p^v_t | y_t for t < r
    and y_t = 0 for t >= r (a row whose pivot is p^e = 0).  c_t = y_t / p^v_t
    is then the coordinate of x in the ambient group, sum of Z/p^(e - v_t).
    The relation step reduces, in those coordinates, the sub generators
    next to p^(e - v_t) e_t for each pivot with v_t > 0 (the others relate
    nothing mod q): U_rel R V_rel has pivots p^w_j, so the quotient is the
    sum of Z/p^w_j plus a Z/q for each row without pivot.  The j-th
    generator is U^-1 D U_rel^-1 e_j, D = diag(p^v_t), replayed from the
    two steps' logs (`_undo`), for the summands of order >= 2, ascending.
    Both steps run `uit_reduce` with a log and U riding along as an
    identity block, as they were written.
    """

    def __init__(self, sub_gens, amb_gens, p, e, m):
        q = p ** e
        dim, width, n_sub = amb_gens.rows, amb_gens.cols, sub_gens.cols
        # [A | S | I] becomes [UA | US | U]
        rows = [[x % q for x in row + srow] + urow for row, srow, urow
                in zip(amb_gens._data, sub_gens._data, _identity_rows(dim))]
        log, rel_log = [], []
        vals, _ = uit_reduce(rows, width, p, e, log=log)
        r = len(vals)
        # y lies in U span(A) iff scales[t] | y_t for every t (q | y_t means y_t = 0)
        scales = [p ** val for val in vals] + [q] * (dim - r)
        for j in range(width, width + n_sub):
            if any(row[j] % s for row, s in zip(rows, scales)):
                raise NotInSpanError(
                    f"sub generator {j - width} is not in the ambient span mod {m}")

        pad = [t for t in range(r) if scales[t] > 1]
        rel_width = n_sub + len(pad)
        rel = []
        for t, urow in enumerate(_identity_rows(r)):
            s = scales[t]
            rel.append([y // s for y in rows[t][width:width + n_sub]]
                       + [q // s if t == k else 0 for k in pad] + urow)
        rel_vals, _ = uit_reduce(rel, rel_width, p, e, log=rel_log)

        factors, gens, u_rel = [], [], []
        for j in range(r):
            d = p ** rel_vals[j] if j < len(rel_vals) else q
            if d < 2:
                continue
            w = _undo(rel_log, [int(t == j) for t in range(r)], q)
            factors.append(d)
            gens.append(_undo(log, [x * s % q for x, s in zip(w, scales)] + [0] * (dim - r), q))
            u_rel.append(rel[j][rel_width:])
        self.q = q
        self.lift = _crt_lift(m, q)
        self.factors = factors
        self.gens = gens
        self._u = [row[width + n_sub:] for row in rows]
        self._scales = scales
        self._u_rel = u_rel

    def coordinates(self, vec):
        q = self.q
        c = []
        for urow, s in zip(self._u, self._scales):
            y = sum(a * b for a, b in zip(urow, vec)) % q
            if y % s:
                raise NotInSpanError("vector is not in the ambient span mod m")
            c.append(y // s)
        return [sum(a * b for a, b in zip(urow, c)) for urow in self._u_rel]


class SpanQuotientPresentation:
    """(span of amb columns mod m)/(span of sub columns mod m) from one
    `SpanPrimePowerQuotient` per prime power of m, combined by CRT: the
    quotient presentation that `kernel_mod` fed before the kernel routine."""

    def __init__(self, sub_gens, amb_gens, m):
        assert sub_gens.rows == amb_gens.rows
        dim = amb_gens.rows
        self.dim = dim
        self.parts = ()
        if m == 1 or dim == 0:
            self.structure = AbGroupStructure()
            self.generator_columns = ()
            return
        self.parts = tuple(SpanPrimePowerQuotient(sub_gens, amb_gens, p, e, m)
                           for p, e in trial_division_factor(m).items())
        k = max(len(part.factors) for part in self.parts)
        factors = [1] * k
        gens = [[0] * dim for _ in range(k)]
        for part in self.parts:
            offset = k - len(part.factors)
            for i, (d, gen) in enumerate(zip(part.factors, part.gens), offset):
                factors[i] *= d
                gens[i] = [(a + part.lift * b) % m for a, b in zip(gens[i], gen)]
        self.structure = AbGroupStructure(factors)
        self.generator_columns = tuple(tuple(gen) for gen in gens)

    def coordinates(self, vector):
        factors = self.structure.invariant_factors
        c = [0] * len(factors)
        for part in self.parts:
            coords = part.coordinates(list(vector))
            for i, x in enumerate(coords, len(factors) - len(coords)):
                c[i] += part.lift * x
        return tuple(x % d for x, d in zip(c, factors))


def as_matrix(rows, cols):
    """The IntMatrix with these rows, `cols` wide (which a 0-row list needs)."""
    return IntMatrix(len(rows), cols, [x for row in rows for x in row])


def as_columns(cols, dim):
    """The IntMatrix with these columns, each `dim` long (which an empty list needs)."""
    assert all(len(col) == dim for col in cols)
    return IntMatrix(dim, len(cols), [col[i] for i in range(dim) for col in cols])


def int_mat_vec(mat, vec):
    """mat @ vec over Z, for an IntMatrix `mat` and a vector as long as it is wide."""
    assert len(vec) == mat.cols
    return tuple(sum(a * v for a, v in zip(row, vec)) for row in mat._data)


def old_pair_quotient(a_rows, b_rows, m):
    """ker A / im B mod m from the earlier pair: the ride-along kernel of A,
    then the span quotient (`SpanQuotientPresentation`) of B inside it; the
    oracle for `zmod_linalg.QuotientPresentation`, which takes the same row
    lists."""
    dim = len(b_rows)
    b = as_matrix(b_rows, len(b_rows[0]) if dim else 0)
    return SpanQuotientPresentation(b, ride_along_kernel(as_matrix(a_rows, dim), m), m)


class UitPrimePowerQuotient(_PrimePowerQuotient):
    """`_PrimePowerQuotient` from the dense transforms of `uit_reduce`
    instead of the log: y_t = (U^-T x)_t is column t of U^-1 applied to x,
    and a generator U^T y is summed from the rows of U, which [A^T | I]
    ends with."""

    __slots__ = ()

    def __init__(self, at_rows, b_rows, p, e, m):
        q = p ** e
        width = len(at_rows[0])
        rows = [[x % q for x in col] + urow
                for col, urow in zip(at_rows, _identity_rows(len(at_rows)))]
        vals, uit = uit_reduce(rows, width, p, e, u_inv=True)
        kept = []
        for t in range(len(rows)):
            s = p ** (e - vals[t]) if t < len(vals) else 1
            if s < q:
                kept.append((t, s, [(i, x) for i, x in enumerate(uit[t]) if x]))
        u = [row[width:] for row in rows]
        self.gens = [[sum(yt * urow[i] for yt, urow in zip(y, u)) % q for i in range(len(u))]
                     for y in self._relate(b_rows, kept, p, e, m)]


def span_presentation(sub_gens, amb_gens, m):
    """(span of amb columns)/(span of sub columns) mod m as a
    `QuotientPresentation`, the way `quotient_structure` builds it: ker A
    over B = sub_gens, where the rows of A, the annihilator of the ambient
    columns, generate the kernel of the matrix whose rows are those columns."""
    annihilator = QuotientPresentation(list(zip(*amb_gens._data)), [()] * amb_gens.rows,
                                       m).generator_columns
    return QuotientPresentation(annihilator, sub_gens._data, m)


def uit_quotient_presentation(sub_gens, amb_gens, m):
    """`span_presentation` with every prime-power part built by
    `UitPrimePowerQuotient`."""
    with mock.patch.object(zmod_linalg, "_PrimePowerQuotient", UitPrimePowerQuotient):
        return span_presentation(sub_gens, amb_gens, m)


def both_quotient_paths(sub_gens, amb_gens, m, vectors):
    """(structure, generator columns, coordinates of each vector) of
    span(amb)/span(sub) mod m, from `span_presentation` and from
    `uit_quotient_presentation`."""
    return [(pres.structure, pres.generator_columns, [pres.coordinates(v) for v in vectors])
            for pres in (span_presentation(sub_gens, amb_gens, m),
                         uit_quotient_presentation(sub_gens, amb_gens, m))]


def both_kernel_paths(a_rows, b_rows, m, vectors):
    """`both_quotient_paths` for ker A / im B from row lists."""
    def read(pres):
        return pres.structure, pres.generator_columns, [pres.coordinates(v) for v in vectors]

    logged = read(QuotientPresentation(a_rows, b_rows, m))
    with mock.patch.object(zmod_linalg, "_PrimePowerQuotient", UitPrimePowerQuotient):
        return [logged, read(QuotientPresentation(a_rows, b_rows, m))]


def image_in_kernel(a_rows, b_rows, m):
    """A B = 0 mod m, A and B given by their rows: column k of A times row
    k of B, over their nonzeros, summed into the rows of A B that some
    nonzero reaches.  The matrix form of the check that
    `QuotientPresentation` makes on B column by column."""
    at_rows = list(zip(*a_rows)) if a_rows else [()] * len(b_rows)
    prod = {}
    for col, brow in zip(at_rows, b_rows):
        bnz = [(j, b) for j, b in enumerate(brow) if b]
        for i, a in enumerate(col):
            if a % m:
                row = prod.get(i)
                if row is None:
                    row = prod[i] = [0] * len(brow)
                for j, b in bnz:
                    row[j] += a * b
    return not any(x % m for row in prod.values() for x in row)


def nearest_quotient(a, d):
    # d > 0; quotient q with a - q*d in (-d/2, d/2]
    q, r = divmod(a, d)
    if 2 * r > d:
        q += 1
    return q


def reference_smith_decomposition(mat, *, want_u=True, want_u_inv=False, want_v=True,
                                  want_v_inv=False):
    """Smith reduction that repeats each operation on every tracked transform.

    The reference for `smith_decomposition`, which must give the same
    integers.  Returns (u, u_inv, v, v_inv, diagonal), each matrix None
    unless asked for.

    Pivot choice is the smallest nonzero absolute value, ties broken by lowest
    (row, col), so outputs are reproducible across runs and platforms.
    """
    R, C = mat.rows, mat.cols
    a = mat.row_lists()
    u = [[int(i == j) for j in range(R)] for i in range(R)] if want_u else None
    ui = [[int(i == j) for j in range(R)] for i in range(R)] if want_u_inv else None
    v = [[int(i == j) for j in range(C)] for i in range(C)] if want_v else None
    vi = [[int(i == j) for j in range(C)] for i in range(C)] if want_v_inv else None

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]
        if ui is not None:
            for r in range(R):
                ui[r][i], ui[r][k] = ui[r][k], ui[r][i]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        ai, ak = a[i], a[k]
        for j in range(C):
            ai[j] -= q * ak[j]
        if u is not None:
            uik, ukk = u[i], u[k]
            for j in range(R):
                uik[j] -= q * ukk[j]
        if ui is not None:
            for r in range(R):
                ui[r][k] += q * ui[r][i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if ui is not None:
            for r in range(R):
                ui[r][i] = -ui[r][i]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        if v is not None:
            for r in v:
                r[j], r[k] = r[k], r[j]
        if vi is not None:
            vi[j], vi[k] = vi[k], vi[j]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for r in a:
            r[j] -= q * r[k]
        if v is not None:
            for r in v:
                r[j] -= q * r[k]
        if vi is not None:
            vj, vk = vi[j], vi[k]
            for c in range(C):
                vk[c] += q * vj[c]

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
                    q = nearest_quotient(x, d)
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
                    q = nearest_quotient(x, d)
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

    def wrap(rows_list):
        return None if rows_list is None else IntMatrix.from_rows(rows_list)

    return wrap(u), wrap(ui), wrap(v), wrap(vi), diag


def brute_cyclic_subgroup_sets(group):
    e = group.identity
    out = set()
    for g in range(group.order):
        elems = {e}
        acc = g
        while acc != e:
            elems.add(acc)
            acc = group.table[acc][g]
        out.add(tuple(sorted(elems)))
    return out


def trial_division_factor(n):
    """Trial-division factorization; the primality oracle for small tests."""
    n = int(n)
    assert n > 0
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_is_square_mod_odd_prime(d, p):
    """d (possibly negative) a nonzero-mod-p unit square mod odd prime p?"""
    dp = d % p
    if dp == 0:
        return False
    return dp in {(x * x) % p for x in range(1, p)}


def brute_is_square_in_q2(d, depth=12):
    """Squareness of squarefree d in Q_2 by exhaustive lift mod 2^depth.

    For odd d this decides correctly at depth >= 3; squarefree even d has
    valuation 1 and is never a square.
    """
    if d % 2 == 0:
        return False
    mod = 1 << depth
    target = d % mod
    return any((x * x) % mod == target for x in range(1, mod, 2))


def is_ellth_power_residue(q, p, ell):
    """Whether q is an ell-th power mod p, i.e. q^((p-1)/ell) == 1 (mod p).

    Requires ell | p - 1 (otherwise every unit is an ell-th power and the
    criterion is undefined) and p not dividing q.
    """
    p, q, ell = int(p), int(q), int(ell)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if (p - 1) % ell:
        raise ValueError(f"ell = {ell} does not divide p - 1 = {p - 1}")
    if q % p == 0:
        raise ValueError(f"p = {p} divides q = {q}")
    return pow(q, (p - 1) // ell, p) == 1


def two_branch_ellth_root(q, ell, precision=8):
    """`ellth_root_in_zell` as it was written with a separate ell = 2 branch:
    a witness x with x^ell == q (mod ell^precision), or None."""
    q, ell = int(q), int(ell)
    precision = max(int(precision), 3 if ell == 2 else 2)
    if ell == 2:
        if q % 8 != 1:
            return None
        x = 1
        for k in range(3, precision):
            # x odd, so adding 2^(k-1) flips x*x mod 2^(k+1) by exactly 2^k
            if (x * x - q) % (1 << (k + 1)):
                x += 1 << (k - 1)
        mod = 1 << precision
    else:
        if q % (ell * ell) != 1:
            return None
        x = 1
        for j in range(2, precision):
            target = ell ** (j + 1)
            step = ell ** (j - 1)
            for c in range(ell):
                if (pow(x + c * step, ell, target) - q) % target == 0:
                    x += c * step
                    break
            else:
                return None
        mod = ell ** precision
    assert (pow(x, ell, mod) - q) % mod == 0
    return x % mod


def oracle_jsonify(value):
    """The canonical JSON form of a report value as plain JSON values, for
    `json.dumps(..., indent=2)` to write: every integer a decimal string, an
    AbGroupStructure its invariant factors, a tuple a list, a dict key a
    string; bools, None and strings pass through.  Any other value, a
    record included, raises an AssertionError."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, AbGroupStructure):
        return [str(d) for d in value.invariant_factors]
    # exact types: a record is a tuple too, but has no canonical form as a list
    if type(value) in (list, tuple):
        return [oracle_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): oracle_jsonify(v) for k, v in value.items()}
    raise AssertionError(f"no canonical JSON form for {type(value).__name__}")
