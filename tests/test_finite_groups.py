import random
import re
from itertools import product

import pytest

from tameapprox.finite_groups import (
    Group,
    Subgroup,
    _cayley_presentation,
    all_subgroups,
    builtin_group,
    cyclic_group,
    cyclic_subgroups,
    direct_product,
    from_permutations,
    full_subgroup,
    group_from_json,
    product_of_prime_powers,
    quaternion_group,
    subgroup_generated,
    trivial_subgroup,
)

from oracle_helpers import (
    brute_cyclic_subgroup_sets,
    brute_generated,
    evaluate_word,
    triple_scan_is_associative,
)
from random_modules import sweep_modules

BATTERY = ["klein4", "z2xz4", "z4", "z3xz3", "s3", "z6", "q8", "z2xz2xz2"]


class TestConstruction:
    def test_from_permutations_order_two(self):
        g = from_permutations([(1, 0)])
        assert g.order == 2
        assert g.identity == 0

    def test_from_permutations_klein(self):
        g = from_permutations([(1, 0, 2, 3), (0, 1, 3, 2)])
        assert g.order == 4
        assert g.exponent() == 2

    def test_from_permutations_s3(self):
        # oracle: brute closure of a 3-cycle and a transposition has 6 elements
        g = from_permutations([(1, 2, 0), (1, 0, 2)])
        assert g.order == 6
        assert g.exponent() == 6
        t = g.table
        assert any(t[a][b] != t[b][a] for a in range(6) for b in range(6))

    def test_rejects_malformed_permutation(self):
        with pytest.raises(ValueError, match="permutation 1"):
            from_permutations([(1, 0), (0, 0)])
        with pytest.raises(ValueError, match="degree"):
            from_permutations([(1, 0), (0, 1, 2)])

    def test_rejects_closure_over_limit(self):
        with pytest.raises(ValueError, match="limit"):
            from_permutations([tuple(range(1, 7)) + (0,)], limit=5)

    def test_refuses_inputs_that_are_not_ints(self):
        # each was once converted by int(), so a float was truncated: the
        # first three built Z/2 and the last Z/4 x Z/2; the message is the
        # integer rule's, naming the first argument that breaks it
        for make, message in (
                (lambda: from_permutations([(1.9, 0.2)]), r"an entry of permutation 0 is 1\.9"),
                (lambda: from_permutations([(1, 0), (0, "1")]), "an entry of permutation 1 is '1'"),
                (lambda: Group([[0, 1.9], [1, 0]]), r"an entry of table row 0 is 1\.9"),
                (lambda: Group([[0, 1], [True, 0]]), "an entry of table row 1 is True"),
                (lambda: cyclic_group(2.7), r"cyclic group order is 2\.7"),
                (lambda: cyclic_group("3"), "cyclic group order is '3'"),
                (lambda: product_of_prime_powers(2.9, 1.5), r"ell is 2\.9"),
                (lambda: product_of_prime_powers(2, 1.0), r"n is 1\.0")):
            with pytest.raises(ValueError, match=f"^{message}, not an int$"):
                make()

    def test_group_axioms_scanned(self):
        for name in BATTERY:
            g = builtin_group(name)
            e = g.identity
            n = g.order
            for x in range(n):
                assert g.table[e][x] == x and g.table[x][e] == x
                assert g.table[x][g.inverse(x)] == e
            for x in range(n):
                for y in range(n):
                    xy = g.table[x][y]
                    for z in range(n):
                        assert g.table[xy][z] == g.table[x][g.table[y][z]]

    def test_rejects_non_permutation_row(self):
        with pytest.raises(ValueError, match="row 1"):
            Group([[0, 1], [1, 1]])

    def test_rejects_no_identity(self):
        # a Latin square with a left identity that is not a right identity
        with pytest.raises(ValueError, match="identity"):
            Group([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_light_test_matches_triple_scan(self):
        # seeded loops with identity 0 at orders 4-10 and above 64 (no size
        # cliff), from cyclic tables and from groups that need more than one
        # generator; odd cyclic squares have no intercalate, so the order-5
        # loop below stands in for the odd non-associative ones
        rng = random.Random(6174)
        tables = [[[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]]
        bases = [cyclic_group(n) for n in range(4, 11)]
        bases += [builtin_group(name) for name in ("klein4", "z2xz4", "z2xz2xz2", "s3", "q8")]
        for base in bases:
            tables += [_intercalate_loop(rng, base, rng.randint(0, 3)) for _ in range(25)]
        for base in (cyclic_group(66), direct_product(cyclic_group(2), cyclic_group(34))):
            tables += [_intercalate_loop(rng, base, swaps) for swaps in (0, 1, 2)]
        verdicts = []
        for table in tables:
            try:
                Group(table)
                accepted = True
            except ValueError as exc:
                assert "associativity fails" in str(exc)
                accepted = False
            assert accepted == triple_scan_is_associative(table), table
            verdicts.append((len(table), accepted))
        assert {(66, False), (66, True), (68, False), (68, True)} <= set(verdicts)
        assert sum(not ok for _, ok in verdicts) > 50

    def test_direct_product_keeps_each_factors_names(self):
        # names are one tuple over all factors; a tail factor's parentheses stay
        s3, z2 = builtin_group("s3"), cyclic_group(2)
        assert direct_product(z2, s3).names[1] == "(0,(0 1 2))"
        assert direct_product(s3, z2).names[2] == "((0 1 2),0)"
        tail = group_from_json({"table": [[0, 1], [1, 0]], "names": ["a", "(a)"]})
        assert direct_product(z2, tail).names == ("(0,a)", "(0,(a))", "(1,a)", "(1,(a))")
        assert direct_product(z2, direct_product(z2, z2)).names[:2] == ("(0,(0,0))", "(0,(0,1))")
        assert direct_product(z2, z2, z2).names[:2] == ("(0,0,0)", "(0,0,1)")
        # indexing stays big-endian: (a, b) is a*|H| + b
        g = direct_product(cyclic_group(3), cyclic_group(4))
        assert g.names[4 * 2 + 3] == "(2,3)"
        assert g.table[4 * 1 + 2][4 * 2 + 3] == 4 * 0 + 1



def _intercalate_loop(rng, group, swaps):
    """The Cayley table of `group` (identity 0) after `swaps` random
    intercalate swaps.

    An intercalate is a 2 x 2 subsquare a b / b a; swapping it to b a / a b
    keeps a Latin square.  Row and column 0 are left alone, so 0 stays a
    two-sided identity and the result is a loop, associative or not.
    """
    n = group.order
    table = [list(row) for row in group.table]
    for _ in range(swaps):
        found = []
        for i in range(1, n):
            for k in range(i + 1, n):
                column_of = {v: j for j, v in enumerate(table[k])}
                for j in range(1, n):
                    col = column_of[table[i][j]]
                    if col > j and table[i][col] == table[k][j]:
                        found.append((i, k, j, col))
        if not found:
            break
        i, k, j, col = rng.choice(found)
        for row in (table[i], table[k]):
            row[j], row[col] = row[col], row[j]
    return table


class TestExponent:
    def test_klein(self):
        assert builtin_group("klein4").exponent() == 2

    def test_z2xz4(self):
        assert builtin_group("z2xz4").exponent() == 4

    def test_q8(self):
        # oracle: element orders via Cayley-table powers are {1, 2, 4}
        g = quaternion_group()
        orders = {g.element_order(x) for x in range(8)}
        assert orders == {1, 2, 4}
        assert g.exponent() == 4

    def test_exponent_divides_order(self):
        for name in BATTERY:
            g = builtin_group(name)
            assert g.order % g.exponent() == 0

    def test_cyclic_exponent_equals_order(self):
        for n in (1, 2, 3, 4, 6, 8, 12):
            assert cyclic_group(n).exponent() == n


class TestCyclicSubgroups:
    def test_klein(self):
        subs = cyclic_subgroups(builtin_group("klein4"))
        assert [s.order for s in subs] == [1, 2, 2, 2]

    def test_z4(self):
        subs = cyclic_subgroups(cyclic_group(4))
        assert [s.order for s in subs] == [1, 2, 4]

    def test_s3(self):
        # oracle: enumerate <g> for all six elements, dedupe
        subs = cyclic_subgroups(builtin_group("s3"))
        assert [s.order for s in subs] == [1, 2, 2, 2, 3]

    def test_matches_brute_enumeration(self):
        groups = [builtin_group(n) for n in BATTERY]
        groups.append(from_permutations([(1, 2, 3, 0), (1, 0, 3, 2)]))  # D4, order 8
        groups.append(direct_product(cyclic_group(2), cyclic_group(12)))  # order 24
        for g in groups:
            assert g.order <= 24
            got = {s.elements for s in cyclic_subgroups(g)}
            assert got == brute_cyclic_subgroup_sets(g)

    def test_lagrange(self):
        for name in BATTERY:
            g = builtin_group(name)
            for s in cyclic_subgroups(g):
                assert g.order % s.order == 0


class TestSubgroups:
    def test_generated_trivial(self):
        g = builtin_group("klein4")
        assert subgroup_generated(g, []).elements == (g.identity,)

    def test_generated_full(self):
        g = builtin_group("s3")
        assert subgroup_generated(g, list(g.generating_set())).order == 6

    def test_two_involutions_generate_klein(self):
        g = builtin_group("klein4")
        non_identity = [x for x in range(4) if x != g.identity]
        assert subgroup_generated(g, non_identity[:2]).order == 4

    @pytest.mark.parametrize("gens", [[99], [8], [-1], [1, -8], [1.0], ["1"], [True], [None]])
    def test_generator_outside_the_group_is_rejected(self, gens):
        # an int outside 0..7 is out of range; anything else, 1.0 and True
        # included, breaks the integer rule
        g = cyclic_group(8)
        bad = gens[-1]
        if type(bad) is int:
            message = rf"^subgroup generator {bad} is not an element index in 0\.\.7$"
        else:
            message = f"^subgroup generator is {re.escape(repr(bad))}, not an int$"
        with pytest.raises(ValueError, match=message):
            subgroup_generated(g, gens)

    def test_closure_validated(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError, match="closed"):
            Subgroup(g, [0, 1])

    def test_all_subgroups_counts(self):
        # classical subgroup counts
        expected = {"klein4": 5, "z4": 3, "z2xz4": 8, "z3xz3": 6,
                    "s3": 6, "z6": 4, "q8": 6, "z2xz2xz2": 16}
        for name, count in expected.items():
            g = builtin_group(name)
            subs = all_subgroups(g)
            assert len(subs) == count
            for s in subs:
                assert g.order % s.order == 0

    def test_as_group_roundtrip(self):
        g = builtin_group("z2xz4")
        for s in all_subgroups(g):
            k = s.as_group()
            assert k.order == s.order
            for a in range(k.order):
                for b in range(k.order):
                    parent = g.table[s.elements[a]][s.elements[b]]
                    assert s.elements[k.table[a][b]] == parent

    def test_uncached_reads_repeat(self):
        # generating_set and as_group are rebuilt on each call; presentation is cached
        for name in ("z2xz4", "s3", "q8"):
            for s in all_subgroups(builtin_group(name)):
                assert s.generating_set() == s.generating_set()
                first, second = s.as_group(), s.as_group()
                assert (first.table, first.names) == (second.table, second.names)
                assert s.presentation() is s.presentation()

    def test_is_cyclic(self):
        g = builtin_group("z2xz4")
        assert not full_subgroup(g).is_cyclic()
        assert trivial_subgroup(g).is_cyclic()
        assert all(s.is_cyclic() for s in cyclic_subgroups(g))


class TestBuiltinsAndJson:
    def test_parametrized_family(self):
        g = builtin_group("zlxzln:3:2")
        assert g.order == 27
        assert g.exponent() == 9

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_group("z7xz9")

    def test_json_table(self):
        g = group_from_json({"table": [[0, 1], [1, 0]], "names": ["e", "s"]})
        assert g.order == 2
        assert g.names == ("e", "s")

    def test_json_names_must_be_distinct(self):
        with pytest.raises(ValueError, match="element names are not distinct"):
            group_from_json({"table": [[0, 1], [1, 0]], "names": ["a", "a"]})
        with pytest.raises(ValueError, match="element names are not distinct"):
            group_from_json({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                             "names": ["e", "a", "e"]})

    def test_json_permutations(self):
        g = group_from_json({"permutations": [[1, 2, 0]]})
        assert g.order == 3

    def test_json_errors_name_offender(self):
        with pytest.raises(ValueError, match="row 0"):
            group_from_json({"table": [[0, 0], [1, 1]]})
        with pytest.raises(ValueError, match="column 0"):
            group_from_json({"table": [[0, 1], [0, 1]]})
        with pytest.raises(ValueError, match="row 0 has 2 entries"):
            group_from_json({"table": [[0, 1], [1, 0], [0, 1]]})
        with pytest.raises(ValueError, match="permutations|table"):
            group_from_json({"generators": []})

    def test_limit_applies(self):
        with pytest.raises(ValueError, match="limit"):
            builtin_group("z8", limit=4)
        # the parametrized family is guarded before any table is built
        with pytest.raises(ValueError, match="limit"):
            builtin_group("zlxzln:2:40", limit=512)

    def test_product_of_prime_powers_guards_its_order(self):
        with pytest.raises(ValueError, match=r"^group order 2\^10 exceeds the limit 512$"):
            product_of_prime_powers(2, 9)
        with pytest.raises(ValueError, match=r"^group order 3\^2 exceeds the limit 8$"):
            product_of_prime_powers(3, 1, limit=8)
        with pytest.raises(ValueError, match=r"^group order 2\^41 exceeds the limit 512$"):
            product_of_prime_powers(2, 40)  # before any table is built
        assert product_of_prime_powers(3, 1, limit=9).order == 9
        # the guard runs before the lookup: a cached group passes no smaller limit
        with pytest.raises(ValueError, match=r"^group order 3\^2 exceeds the limit 8$"):
            product_of_prime_powers(3, 1, limit=8)

    @pytest.mark.parametrize("ell, n", [(2, 1), (2, 2), (3, 1), (5, 1)])
    def test_product_of_prime_powers_is_one_group_per_process(self, ell, n):
        group = product_of_prime_powers(ell, n)
        assert product_of_prime_powers(ell, n) is group
        assert builtin_group(f"zlxzln:{ell}:{n}") is group
        # the names and table of a group built afresh
        fresh = direct_product(cyclic_group(ell ** n), cyclic_group(ell))
        assert fresh is not group
        assert (group.names, group.table) == (fresh.names, fresh.table)

    @pytest.mark.parametrize("name, message", [
        ("zlxzln:2:0", "n must be >= 1 in 'zlxzln:2:0', got 0"),
        ("zlxzln:2:-3", "n must be >= 1 in 'zlxzln:2:-3', got -3"),
        ("zlxzln:1:3", "ell must be >= 2 in 'zlxzln:1:3', got 1"),
        ("zlxzln:0:0", "ell must be >= 2 in 'zlxzln:0:0', got 0"),
    ])
    def test_bad_family_parameter_is_named(self, name, message):
        with pytest.raises(ValueError) as exc:
            builtin_group(name)
        assert str(exc.value) == message


def presentation_groups():
    """Every builtin group, the groups of the random-module sweep, and S4."""
    groups = [builtin_group(name) for name in BATTERY + [
        "z2", "z3", "z5", "z8", "zlxzln:2:2", "zlxzln:2:3", "zlxzln:3:1", "zlxzln:5:1"]]
    for g, _ in sweep_modules():
        if g not in groups:
            groups.append(g)
    groups.append(from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)]))
    return groups


def assert_presentation(g, pc, elements):
    """Brute checks of a polycyclic presentation of the subgroup on `elements`
    of g, read off the Cayley table without the code under test."""
    elements = set(elements)
    gens, orders, d = pc.generators, pc.relative_orders, len(pc.generators)
    assert len(orders) == d and all(r >= 2 for r in orders), g
    # exactly one normal form g_1^e_1 ... g_d^e_d per element
    forms = [evaluate_word(g, gens, [i for i, e in enumerate(exps) for _ in range(e)])
             for exps in product(*(range(r) for r in orders))]
    assert sorted(forms) == sorted(elements), g
    # N_i = <g_i, ..., g_d> has order prod_{j >= i} r_j and is normal in N_(i-1)
    above = elements
    for i in range(d + 1):
        sub = brute_generated(g, gens[i:])
        size = 1
        for r in orders[i:]:
            size *= r
        assert len(sub) == size, (g, i)
        assert all(g.table[g.table[g.inverse(x)][y]][x] in sub
                   for x in above for y in sub), (g, i)
        above = sub
    # every relator holds, and its right side is a normal form below it
    powers = [((i,) * r, i, ()) for i, r in enumerate(orders)]
    conjugates = [((j, i), i, (i,)) for i in range(d) for j in range(i + 1, d)]
    assert [lhs for lhs, _ in pc.relators] == [lhs for lhs, _, _ in powers + conjugates]
    for (lhs, rhs), (_, i, head) in zip(pc.relators, powers + conjugates):
        assert evaluate_word(g, gens, lhs) == evaluate_word(g, gens, rhs), (g, lhs)
        assert rhs[:len(head)] == head, (g, lhs)
        tail = rhs[len(head):]
        assert list(tail) == sorted(tail) and all(k > i for k in tail), (g, lhs)
        assert all(tail.count(k) < orders[k] for k in tail), (g, lhs)
    # the tree reaches every element once, along g -> g g_i
    reached = {g.identity}
    for x, i, y in pc.tree:
        assert x in reached and y not in reached and g.table[x][gens[i]] == y
        reached.add(y)
    assert reached == elements


class TestPolycyclicPresentation:
    """The presentation of a whole solvable group, `full_subgroup(g).presentation()`,
    against the Cayley table, read without the code under test."""

    def test_against_cayley_table(self):
        for g in presentation_groups():
            assert_presentation(g, full_subgroup(g).presentation(), range(g.order))

    def test_layers_follow_the_derived_series(self):
        # S4 > A4 > V4 > 1: factors 2, 3 and 2 x 2
        s4 = from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)])
        assert full_subgroup(s4).presentation().relative_orders == (2, 3, 2, 2)
        # abelian groups take one layer, largest orders first from the bottom
        assert full_subgroup(builtin_group("zlxzln:2:3")).presentation().relative_orders == (2, 8)
        assert full_subgroup(builtin_group("z8")).presentation().relative_orders == (8,)
        assert full_subgroup(cyclic_group(1)).presentation().generators == ()

    def test_cached_on_the_group(self):
        g = builtin_group("q8")
        assert full_subgroup(g).presentation() is full_subgroup(g).presentation()

    def test_not_solvable_has_none(self):
        # no polycyclic presentation: A5 is presented by its Cayley graph
        a5 = from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
        assert a5.order == 60
        assert full_subgroup(a5).presentation().relative_orders is None


class TestSubgroupPresentation:
    """Subgroup.presentation, in the parent's indices, against the presentation
    of the standalone group and against the Cayley table."""

    def test_every_subgroup(self):
        groups = [builtin_group(name) for name in
                  BATTERY + ["z2", "z3", "z5", "z8", "zlxzln:2:3"]]
        groups.append(from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)]))  # S4
        checked = 0
        for g in groups:
            for sub in all_subgroups(g):
                pc, local = sub.presentation(), full_subgroup(sub.as_group()).presentation()
                image = sub.elements
                assert pc.generators == tuple(image[x] for x in local.generators), (g, sub)
                assert pc.relative_orders == local.relative_orders
                assert pc.relators == local.relators
                assert pc.tree == tuple((image[x], i, image[y]) for x, i, y in local.tree)
                assert_presentation(g, pc, sub.elements)
                assert brute_generated(g, sub.generating_set()) == set(sub.elements)
                assert sub.presentation() is pc
                checked += 1
        assert checked == 54 + 10 + 11 + 30  # battery, cyclic, Z/8 x Z/2, S4

    def test_full_subgroup_shares_the_parent(self):
        g = builtin_group("q8")
        full = full_subgroup(g)
        assert full_subgroup(g) is full and full.parent is g
        assert full.presentation() is full.presentation()
        assert full.generating_set() == g.generating_set()

    def test_not_solvable_has_none(self):
        # no polycyclic presentation: A5 inside S5 is presented by its Cayley graph
        s5 = from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        a5 = subgroup_generated(s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")])
        assert a5.order == 60
        assert a5.presentation().relative_orders is None
        assert brute_generated(s5, a5.generating_set()) == set(a5.elements)

    def test_not_solvable_is_the_cayley_presentation(self):
        # A5 itself and A5 inside S5, field for field
        a5 = from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
        s5 = from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        inside = subgroup_generated(
            s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")])
        for g, sub in ((a5, full_subgroup(a5)), (s5, inside)):
            pres = sub.presentation()
            expected = _cayley_presentation(g, sub.generating_set())
            for field in ("generators", "relative_orders", "relators", "tree"):
                assert getattr(pres, field) == getattr(expected, field), (g, field)
            assert sub.presentation() is pres

    def test_full_subgroup_is_built_once(self):
        for name in ("z2", "q8", "zlxzln:2:3"):
            g = builtin_group(name)
            assert full_subgroup(g) is full_subgroup(g)
            assert full_subgroup(g).elements == tuple(range(g.order))
        # an equal group built afresh gets its own, equal one
        assert full_subgroup(builtin_group("q8")) == full_subgroup(builtin_group("q8"))


class TestCayleyPresentation:
    """_cayley_presentation against the Cayley table, read without the code
    under test, on every subgroup of the presentation groups, on A5 and on
    A5 inside S5."""

    def test_against_cayley_table(self):
        cases = [(g, sub) for g in presentation_groups() for sub in all_subgroups(g)]
        a5 = from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
        s5 = from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        cases += [(a5, full_subgroup(a5)), (s5, subgroup_generated(
            s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")]))]
        for g, sub in cases:
            gens = sub.generating_set()
            pres = _cayley_presentation(g, gens)
            assert pres.generators == gens and pres.relative_orders is None
            # the tree reaches every element of H exactly once, along x -> x s_i
            words = {g.identity: ()}
            for x, i, y in pres.tree:
                assert x in words and y not in words and g.table[x][gens[i]] == y, (g, sub)
                words[y] = words[x] + (i,)
            assert set(words) == set(sub.elements), (g, sub)
            # one relator per Cayley edge off the tree, between tree paths,
            # and each holds in the table
            n = sub.order
            assert len(pres.relators) == n * len(gens) - (n - 1), (g, sub)
            for lhs, rhs in pres.relators:
                x = evaluate_word(g, gens, lhs)
                assert x == evaluate_word(g, gens, rhs), (g, sub, lhs)
                assert words[x] == rhs and words[evaluate_word(g, gens, lhs[:-1])] == lhs[:-1]
