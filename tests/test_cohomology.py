import random
from pathlib import Path

import pytest

from tameapprox import cohomology, g_modules
from tameapprox.arithmetic import (
    KummerPair,
    _biquadratic_model,
    biquadratic_place_records,
    certify,
)
from tameapprox.cli import main

from tameapprox.cohomology import (
    H1Result,
    PlaceRecord,
    _differences,
    _fox_system,
    _restriction_kernel,
    _subgroup_h1,
    coboundary0_matrix,
    coboundary1_matrix,
    dimension_shift_check,
    h1,
    is_cocycle,
    res_h1,
    sha_cyc,
    sha_sigma,
    tate_h0,
    verify_augmentation_lemma,
)
from tameapprox.finite_groups import (
    Subgroup,
    _cayley_presentation,
    all_subgroups,
    builtin_group,
    cyclic_group,
    cyclic_subgroups,
    direct_product,
    from_permutations,
    full_subgroup,
    subgroup_generated,
    trivial_subgroup,
)
from tameapprox.g_modules import GModule, augmentation_ideal, group_ring, restrict, trivial_module
from tameapprox.zmod_linalg import (
    AbGroupStructure,
    IntMatrix,
    QuotientPresentation,
    quotient_structure,
)

from oracle_helpers import (
    _cayley_system,
    all_pairs_is_cocycle,
    as_matrix,
    both_kernel_paths,
    brute_generated,
    brute_h1_order,
    cayley_h1,
    cayley_restriction_kernel,
    expanded_res_h1,
    full_cochain_h1,
    is_brute_coboundary,
    old_pair_quotient,
    ride_along_kernel,
    solved_restriction_kernel,
    span_presentation,
    SpanQuotientPresentation,
)
from random_modules import _coset_permutation, random_gmodule, sweep_modules

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
BATTERY = ["klein4", "z2xz4", "z4", "z3xz3", "s3", "z6", "q8", "z2xz2xz2"]


class TestH1:
    def test_hom_into_trivial_module(self):
        g = cyclic_group(2)
        assert h1(g, trivial_module(g, 2)).structure == AbGroupStructure([2])

    def test_coprime_orders_vanish(self):
        g = cyclic_group(2)
        assert h1(g, trivial_module(g, 3)).structure.is_trivial

    def test_augmentation_ideal_gives_group_order(self):
        # H^1(H, I|_H) = Z/|H| for the augmentation ideal over Z/|G|
        for name in ("klein4", "z2xz4", "s3"):
            g = builtin_group(name)
            ideal, _, _ = augmentation_ideal(g, g.order)
            for sub in cyclic_subgroups(g):
                structure = h1(sub.as_group(), restrict(ideal, sub)).structure
                expected = AbGroupStructure([sub.order] if sub.order > 1 else [])
                assert structure == expected

    def test_reps_are_normalized_cocycles(self):
        for name in ("klein4", "z3xz3", "q8"):
            g = builtin_group(name)
            ideal, _, _ = augmentation_ideal(g, g.order)
            res = h1(g, ideal)
            columns = res.presentation.generator_columns
            assert len(columns) == len(res.structure.invariant_factors)
            for rep in map(res.cocycle, columns):
                assert rep[g.identity] == (0,) * ideal.rank
                assert is_cocycle(g, ideal, rep)

    def test_rep_orders_match_factors(self):
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        res = h1(g, ideal)
        assert res.structure == AbGroupStructure([4])
        rep = res.cocycle(res.presentation.generator_columns[0])
        m = ideal.modulus
        # 2*rep is not a coboundary, 4*rep is
        twice = tuple(tuple(2 * x % m for x in vec) for vec in rep)
        assert not is_brute_coboundary(g, ideal, twice)
        quadruple = tuple(tuple(4 * x % m for x in vec) for vec in rep)
        assert is_brute_coboundary(g, ideal, quadruple)

    def test_order_25_system_in_residues_zero_to_m(self):
        # H^1(G, I) = Z/25 for G = Z/5 x Z/5; an elimination over Z stalled
        # on this system written in residues [0, m) instead of centered ones
        g = builtin_group("zlxzln:5:1")
        ideal, _, _ = augmentation_ideal(g, 25)

        def residues(mat):
            return IntMatrix(mat.rows, mat.cols, [x % 25 for x in mat.entries])

        d1, _ = _cayley_system(g, ideal, g.generating_set())
        d0 = IntMatrix.from_rows(_differences(ideal, g.generating_set()))
        pres = span_presentation(residues(d0), ride_along_kernel(residues(d1), 25), 25)
        assert pres.structure == AbGroupStructure([25])

    def test_mismatched_group_rejected(self):
        with pytest.raises(ValueError, match="different group"):
            h1(cyclic_group(2), trivial_module(cyclic_group(3), 4))

    def test_d1_after_d0_vanishes(self):
        g = builtin_group("s3")
        ideal, _, _ = augmentation_ideal(g, 6)
        comp = coboundary1_matrix(g, ideal) @ coboundary0_matrix(g, ideal)
        assert all(x % 6 == 0 for x in comp.entries)

    def test_against_brute_force_small(self):
        g = builtin_group("klein4")
        for m, rank in ((2, 2), (3, 1), (4, 1)):
            mod = trivial_module(g, m, rank=rank)
            assert h1(g, mod).order == brute_h1_order(g, mod)
        ideal, _, _ = augmentation_ideal(g, 4)
        assert h1(g, ideal).order == brute_h1_order(g, ideal)


class TestIsCocycle:
    def test_matches_all_pairs_check(self):
        # H^1 representatives, the same plus a coboundary, copies with one
        # value changed (the identity's value included), and copies with a
        # constant added on one left coset x<s> of the first generator s,
        # which keeps every condition z(xs) = z(x) + x.z(s) of s itself
        rng = random.Random(11)
        verdicts = set()
        for name in BATTERY:
            g = builtin_group(name)
            n = g.order
            for module in (augmentation_ideal(g, n)[0], trivial_module(g, n)):
                m, r = module.modulus, module.rank
                res = h1(g, module)
                for rep in map(res.cocycle, res.presentation.generator_columns):
                    a = [rng.randrange(m) for _ in range(r)]
                    shifted = tuple(
                        tuple((z + ga - b) % m for z, ga, b in zip(rep[x], module.act(x, a), a))
                        for x in range(n))
                    candidates = [rep, shifted]
                    for x in (g.identity, rng.randrange(n), rng.randrange(n)):
                        bent = list(rep)
                        c = rng.randrange(r)
                        bent[x] = tuple((z + (i == c) * rng.randrange(1, m)) % m
                                        for i, z in enumerate(rep[x]))
                        candidates.append(tuple(bent))
                    gens = g.generating_set()
                    if len(gens) > 1:
                        coset, y = set(), gens[1]
                        while y not in coset:
                            coset.add(y)
                            y = g.table[y][gens[0]]
                        b = [rng.randrange(m) for _ in range(r - 1)] + [rng.randrange(1, m)]
                        candidates.append(tuple(
                            tuple((z + bi * (x in coset)) % m for z, bi in zip(rep[x], b))
                            for x in range(n)))
                    for cand in candidates:
                        verdict = is_cocycle(g, module, cand)
                        assert verdict == all_pairs_is_cocycle(g, module, cand)
                        verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_trivial_group_needs_zero_at_identity(self):
        # the trivial group has no generators; only z(e) = 0 is left to check
        g = cyclic_group(1)
        mod = trivial_module(g, 4, rank=2)
        assert is_cocycle(g, mod, ((0, 4),))
        assert not is_cocycle(g, mod, ((0, 1),))
        assert not all_pairs_is_cocycle(g, mod, ((0, 1),))


class TestTateH0:
    def test_norm_halves_z4(self):
        # oracle: fixed points Z/4, norm image 2*(Z/4) = {0, 2}
        g = cyclic_group(2)
        assert tate_h0(g, trivial_module(g, 4)) == AbGroupStructure([2])

    def test_trivial_group_norm_is_identity(self):
        g = cyclic_group(1)
        assert tate_h0(g, trivial_module(g, 12)).is_trivial

    def test_trivial_module_gives_group_order(self):
        for name in BATTERY:
            g = builtin_group(name)
            assert tate_h0(g, trivial_module(g, g.order)) == AbGroupStructure([g.order])

    def test_herbrand_quotient_one(self):
        # |H^0_hat(H, M)| = |H^1(H, M)| for cyclic H and finite M
        rng = random.Random(5)
        for n in (2, 3, 4, 6):
            g = cyclic_group(n)
            for m in (2, 3, 4, 9):
                mods = [trivial_module(g, m), group_ring(g, m),
                        augmentation_ideal(g, m)[0]]
                for mod in mods:
                    assert tate_h0(g, mod).order == h1(g, mod).order


class TestResH1:
    def test_restriction_to_trivial_subgroup_is_zero(self):
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        mat = res_h1(g, trivial_subgroup(g), ideal)
        assert mat.rows == 0 and mat.cols == 1

    def test_restriction_to_full_group_is_identity(self):
        g = builtin_group("z2xz4")
        ideal, _, _ = augmentation_ideal(g, 8)
        mat = res_h1(g, full_subgroup(g), ideal)
        factors = h1(g, ideal).structure.invariant_factors
        assert mat.rows == mat.cols == len(factors)
        for i in range(mat.rows):
            for j in range(mat.cols):
                assert mat[i, j] == (1 if i == j else 0)

    def test_klein_restriction_hits_z2_generator(self):
        # the order-4 generator of H^1(G, I) restricts onto the Z/2 of each
        # order-2 subgroup (the reduction Z/4 -> Z/2 of the dimension shift)
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        for sub in cyclic_subgroups(g):
            if sub.order != 2:
                continue
            mat = res_h1(g, sub, ideal)
            assert (mat.rows, mat.cols) == (1, 1)
            assert mat[0, 0] % 2 == 1
            # brute cross-check: the restricted cocycle is not a coboundary,
            # its double is
            res = h1(g, ideal)
            rep = res.cocycle(res.presentation.generator_columns[0])
            res_module = restrict(ideal, sub)
            res_rep = tuple(rep[x] for x in sub.elements)
            assert not is_brute_coboundary(sub.as_group(), res_module, res_rep)
            doubled = tuple(tuple(2 * v % 4 for v in vec) for vec in res_rep)
            assert is_brute_coboundary(sub.as_group(), res_module, doubled)

    def test_functoriality_composes(self):
        # restriction along H <= K <= G composes on invariant-factor coords
        g = builtin_group("z2xz4")
        ideal, _, _ = augmentation_ideal(g, 8)
        k_sub = subgroup_generated(g, [1])  # the Z/4 factor
        assert k_sub.order == 4
        h_parent = subgroup_generated(g, [2])  # order-2 inside that Z/4
        assert h_parent.order == 2 and set(h_parent.elements) <= set(k_sub.elements)

        res_gk = res_h1(g, k_sub, ideal)
        res_gh = res_h1(g, h_parent, ideal)
        k_group = k_sub.as_group()
        ideal_k = restrict(ideal, k_sub)
        h_in_k = subgroup_generated(k_group, [k_sub.elements.index(h_parent.elements[1])])
        res_kh = res_h1(k_group, h_in_k, ideal_k)

        target = h1(h_in_k.as_group(), restrict(ideal_k, h_in_k)).structure
        composed = res_kh @ res_gk
        for i, d in enumerate(target.invariant_factors):
            for j in range(res_gh.cols):
                assert (composed[i, j] - res_gh[i, j]) % d == 0


class TestShaCyc:
    def test_paper_values(self):
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        assert sha_cyc(g, ideal) == AbGroupStructure([2])

        g4 = cyclic_group(4)
        ideal4, _, _ = augmentation_ideal(g4, 4)
        assert sha_cyc(g4, ideal4).is_trivial

        s3 = builtin_group("s3")
        ideal6, _, _ = augmentation_ideal(s3, 6)
        assert sha_cyc(s3, ideal6).is_trivial

    def test_generators_restrict_to_coboundaries(self):
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        result = sha_sigma(g, ideal, places=[], excluded=())
        assert result.structure == AbGroupStructure([2])
        for values in result.generators:
            rep = h1(g, ideal).cocycle(values)
            assert is_cocycle(g, ideal, rep)
            assert not is_brute_coboundary(g, ideal, rep)
            for sub in cyclic_subgroups(g):
                if sub.order == 1:
                    continue
                res_rep = tuple(rep[x] for x in sub.elements)
                assert is_brute_coboundary(sub.as_group(), restrict(ideal, sub), res_rep)


class TestScale:
    """The lemma's Z/(n/e) on the augmentation ideal at |G| = 64 and 128."""

    def test_order_128(self):
        g = builtin_group("zlxzln:2:6")
        ideal, _, _ = augmentation_ideal(g, g.order)
        assert sha_cyc(g, ideal) == AbGroupStructure([2])

    def test_elementary_abelian_order_64(self):
        g = direct_product(*[cyclic_group(2)] * 6)
        ideal, _, _ = augmentation_ideal(g, g.order)
        assert sha_cyc(g, ideal) == AbGroupStructure([32])


class TestShaSigma:
    def _klein_setup(self):
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        order2 = [s for s in cyclic_subgroups(g) if s.order == 2]
        places = [
            PlaceRecord(3, full_subgroup(g), True),
            PlaceRecord(17, full_subgroup(g), True),
            PlaceRecord(2, order2[0], True),
        ]
        return g, ideal, places

    def test_excluding_noncyclic_records_matches_sha_cyc(self):
        g, ideal, places = self._klein_setup()
        res = sha_sigma(g, ideal, places, excluded=[3, 17])
        assert res.structure == sha_cyc(g, ideal)

    def test_full_decomposition_record_kills_kernel(self):
        g, ideal, places = self._klein_setup()
        for keep_one in ([3], [17], []):
            res = sha_sigma(g, ideal, places, excluded=keep_one)
            assert res.structure.is_trivial

    def test_spec_example_values(self):
        g, ideal, places = self._klein_setup()
        assert sha_sigma(g, ideal, places, excluded=[3, 17]).structure == AbGroupStructure([2])
        assert sha_sigma(g, ideal, places, excluded=[3]).structure.is_trivial
        assert sha_sigma(g, ideal, places, excluded=[17]).structure.is_trivial

    def test_monotone_in_excluded_set(self):
        g, ideal, places = self._klein_setup()
        order_small = sha_sigma(g, ideal, places, excluded=[3]).structure.order
        order_mid = sha_sigma(g, ideal, places, excluded=[3, 17]).structure.order
        order_empty = sha_sigma(g, ideal, places, excluded=()).structure.order
        assert order_empty <= order_small <= order_mid
        assert order_mid % order_small == 0
        assert order_small % order_empty == 0

    def test_unknown_excluded_label_rejected(self):
        g, ideal, places = self._klein_setup()
        with pytest.raises(ValueError, match="unknown excluded"):
            sha_sigma(g, ideal, places, excluded=["nowhere"])
        # primes and "inf" are places even when not recorded: excluding them
        # is a no-op against the cyclic model
        res = sha_sigma(g, ideal, places, excluded=[3, 17, 5, "inf"])
        assert res.structure == AbGroupStructure([2])

    def test_recorded_place_only_in_its_canonical_spelling(self):
        # "03", " 3" and "+3" parse to the recorded 3, but are not its key:
        # each once counted as an unrecorded place, and record 3 was kept
        records, _ = biquadratic_place_records(KummerPair(3, 17))
        klein = records[0].subgroup.parent
        ideal = augmentation_ideal(klein, 4)[0]
        assert sha_sigma(klein, ideal, records, ["3", "17"]).structure == AbGroupStructure([2])
        for label in ("03", " 3", "+3", "3 ", "-3", "1", "4"):
            with pytest.raises(ValueError, match="^unknown excluded place label "):
                sha_sigma(klein, ideal, records, [label, "17"])
        assert sha_sigma(klein, ideal, records, [3, 17, 5, "inf"]).structure == \
            AbGroupStructure([2])

    def test_foreign_subgroup_rejected(self):
        g, ideal, _ = self._klein_setup()
        other = builtin_group("z4")
        with pytest.raises(ValueError, match="different group"):
            sha_sigma(g, ideal, [PlaceRecord(3, full_subgroup(other), True)])


class TestLemmaAndShift:
    def test_lemma_battery(self):
        expected = {
            "klein4": (2,), "z2xz4": (2,), "z4": (), "z3xz3": (3,),
            "s3": (), "z6": (), "q8": (2,), "z2xz2xz2": (4,),
        }
        for name, factors in expected.items():
            rep = verify_augmentation_lemma(builtin_group(name))
            assert rep.passed, name
            assert rep.computed.invariant_factors == factors, name

    def test_dimension_shift_default_battery(self):
        for name in ("klein4", "z2xz4", "q8"):
            reports = dimension_shift_check(builtin_group(name))
            assert all(r.passed for r in reports)
            orders = [r.subgroup.order for r in reports]
            assert orders[0] == 1 and orders[-1] == builtin_group(name).order

    def test_dimension_shift_all_subgroups(self):
        g = builtin_group("z2xz4")
        reports = dimension_shift_check(g, all_subgroups(g))
        assert len(reports) == 8
        assert dimension_shift_check(g, all_subgroups(g) * 2) == reports
        for r in reports:
            assert r.ideal_h1 == AbGroupStructure(
                [r.subgroup.order] if r.subgroup.order > 1 else [])
            assert r.ring_h1.is_trivial


class TestOracleEquivalence:
    def test_regular_battery_orders(self):
        # deterministic sweep over the standard module zoo for tiny groups
        for name in ("z2", "z3", "z4", "klein4", "s3", "z6"):
            g = builtin_group(name)
            zoo = [trivial_module(g, 2), trivial_module(g, 3, rank=1)]
            if g.order <= 4:
                zoo.append(group_ring(g, 3))
                zoo.append(augmentation_ideal(g, 4)[0])
            for mod in zoo:
                if mod.size > 81:
                    continue
                assert h1(g, mod).order == brute_h1_order(g, mod), (name, mod.label)


def battery_modules():
    """Every builtin group with aug, ring, trivial:|G| and trivial:2."""
    out = []
    for name in TestFullCochainOracle.BUILTINS:
        g = builtin_group(name)
        n = g.order
        out += [(g, mod) for mod in (augmentation_ideal(g, n)[0], group_ring(g, n),
                                     trivial_module(g, n), trivial_module(g, 2))]
    return out


def alternating_group_5():
    return from_permutations([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


def symmetric_group_5():
    return from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


def norm_formula_h1(module, g):
    """H^1(<g>, M) = ker N_g / (g - 1)M from dense matrices, N_g the sum of
    the matrices of the powers of g (Neukirch, Schmidt and Wingberg, 1.7.1)."""
    group, r, m = module.group, module.rank, module.modulus
    norm, x = [[0] * r for _ in range(r)], group.identity
    while True:
        for row, arow in zip(norm, module.act_matrix(x)):
            for j, a in enumerate(arow):
                row[j] += a
        x = group.table[x][g]
        if x == group.identity:
            break
    minus = [[a - (i == j) for j, a in enumerate(row)]
             for i, row in enumerate(module.act_matrix(g))]
    if not r:
        return AbGroupStructure()
    return SpanQuotientPresentation(IntMatrix.from_rows(minus),
                                    ride_along_kernel(IntMatrix.from_rows(norm), m), m).structure


class TestFullCochainOracle:
    """h1 on a polycyclic presentation against Z^1/B^1 over all cochains and
    against the Cayley-graph system."""

    BUILTINS = ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "z2xz4", "z3xz3",
                "z2xz2xz2", "s3", "q8"]

    def test_builtin_groups(self):
        for g, mod in battery_modules():
            res = h1(g, mod)
            assert res.generators == full_subgroup(g).presentation().generators
            assert res.structure == full_cochain_h1(g, mod) == cayley_h1(g, mod)[0], \
                (g, mod.label)

    def test_random_modules(self):
        for g, mod in sweep_modules():
            res = h1(g, mod)
            assert res.generators == full_subgroup(g).presentation().generators
            assert res.structure == full_cochain_h1(g, mod) == cayley_h1(g, mod)[0], \
                (g, mod.label)

    def test_degenerate_inputs(self):
        one = cyclic_group(1)
        klein = builtin_group("klein4")
        for g, mod in ((one, trivial_module(one, 6)), (one, group_ring(one, 4)),
                       (klein, GModule(klein, 4, 0, [()] * 4))):
            res = h1(g, mod)
            assert res.structure == full_cochain_h1(g, mod) == AbGroupStructure()
            assert res.presentation.generator_columns == ()


class TestCyclicRestriction:
    """_subgroup_h1 on every kind of subgroup against the Cayley H^1 of the
    restricted module; a cyclic <g> is its one-relator case, ker N_g / (g - 1)M."""

    def test_structure_per_subgroup(self):
        for g, mod in battery_modules() + sweep_modules():
            subs = all_subgroups(g) if g.order in (4, 6, 8) else cyclic_subgroups(g)
            for sub in subs:
                local = _subgroup_h1(mod, sub)
                gens, tree, pres = local.generators, local.tree, local.presentation
                assert brute_generated(g, gens) == set(sub.elements)
                assert {y for _, _, y in tree} | {g.identity} == set(sub.elements)
                res = restrict(mod, sub)
                assert pres.structure == cayley_h1(res.group, res)[0], (g, mod.label, sub)
                if sub.is_cyclic() and sub.order > 1:
                    # the lowest-index element of order |H|, and its formula
                    gen = min(x for x in sub.elements if g.element_order(x) == sub.order)
                    assert gens == (gen,)
                    assert pres.structure == norm_formula_h1(mod, gen), (g, mod.label, sub)

    def test_restriction_kernels(self):
        # the cyclic kernel, and the kernel over every subgroup, which mixes
        # cyclic subgroups with non-cyclic ones
        for g, mod in battery_modules() + sweep_modules():
            cyclic = cyclic_subgroups(g)
            assert sha_cyc(g, mod) == cayley_restriction_kernel(g, mod, cyclic), (g, mod.label)
            if g.order in (4, 6, 8):
                subs = all_subgroups(g)
                assert (_restriction_kernel(g, mod, subs).structure
                        == cayley_restriction_kernel(g, mod, subs)), (g, mod.label)

    def test_non_cyclic_subgroup_is_not_read_cyclically(self):
        # klein4 is solved on its own two generators and three relators:
        # H^1(V4, I) = Z/4, while every ker N_g / (g - 1)I here has order 2
        g = builtin_group("klein4")
        ideal = augmentation_ideal(g, 4)[0]
        full = _subgroup_h1(ideal, full_subgroup(g))
        assert full is h1(g, ideal)
        assert len(full.generators) == 2 and full.structure == AbGroupStructure([4])
        assert all(norm_formula_h1(ideal, x) == AbGroupStructure([2])
                   for x in range(4) if x != g.identity)

    def test_sha_generators_restrict_to_coboundaries(self):
        # each generator is a vector of values at G's generators that meets
        # G's relator rows (A x = 0) and is a nonzero class of G; expanded,
        # it is a cocycle whose restriction to every cyclic subgroup has
        # zero coordinates in the restricted Cayley H^1
        checked = 0
        for g, mod in battery_modules() + sweep_modules():
            _, _, coordinates = cayley_h1(g, mod)
            full = h1(g, mod)
            relators = _fox_system(g, mod, full_subgroup(g).presentation())
            m = mod.modulus
            for values in sha_sigma(g, mod, places=[]).generators:
                assert len(values) == len(full.generators) * mod.rank
                assert all(sum(a * x for a, x in zip(row, values)) % m == 0 for row in relators)
                assert any(full.presentation.coordinates(values)), (g, mod.label)
                rep = full.cocycle(values)
                assert is_cocycle(g, mod, rep)
                assert any(coordinates(rep)), (g, mod.label)
                for sub in cyclic_subgroups(g):
                    res = restrict(mod, sub)
                    local = tuple(rep[x] for x in sub.elements)
                    assert not any(cayley_h1(res.group, res)[2](local)), (g, mod.label, sub)
                checked += 1
        assert checked >= 5

    def test_not_solvable_proper_subgroup(self):
        # A5 inside S5 has no polycyclic presentation: its H^1 comes from the
        # Cayley graph of its own generators, in the indices of S5
        s5 = symmetric_group_5()
        a5 = subgroup_generated(s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")])
        s4 = subgroup_generated(s5, [s5.names.index("(0 1 2 3)"), s5.names.index("(0 1)")])
        assert (a5.order, s4.order) == (60, 24) and a5.presentation().relative_orders is None
        mats, dim = _coset_permutation(s5, s4)
        expected = [  # H^1(A5, M), and the kernel of H^1(S5, M) -> H^1(A5, M)
            (trivial_module(s5, 2), [], [2]),  # the sign character dies on A5
            (trivial_module(s5, 4), [], [2]),
            # Shapiro: H^1(A5, F_3[A5/A4]) = Hom(A4, Z/3), H^1(S5, .) = Hom(S4, Z/3)
            (GModule(s5, 3, dim, mats), [3], []),
        ]
        for mod, local, kernel in expected:
            solved = _subgroup_h1(mod, a5)
            gens, pres = solved.generators, solved.presentation
            assert gens == a5.generating_set()
            assert brute_generated(s5, gens) == set(a5.elements)
            res = restrict(mod, a5)
            assert pres.structure == cayley_h1(res.group, res)[0] == AbGroupStructure(local)
            assert (_restriction_kernel(s5, mod, [a5]).structure
                    == cayley_restriction_kernel(s5, mod, [a5]) == AbGroupStructure(kernel))
            assert res_h1(s5, a5, mod).rows == len(local)


class TestOperationLogSystems:
    """The `_subgroup_h1` system of every subgroup of every builtin group,
    with the coordinate functionals read off the operation log and taken
    from the dense U^-1 (`both_kernel_paths`)."""

    def test_subgroup_systems_match_dense_path(self):
        checked = 0
        for name in TestFullCochainOracle.BUILTINS:
            g = builtin_group(name)
            n = g.order
            for mod in (augmentation_ideal(g, n)[0], group_ring(g, n), trivial_module(g, 6)):
                m = mod.modulus
                for sub in all_subgroups(g):
                    pres = sub.presentation()
                    a_rows = _fox_system(g, mod, pres)
                    b_rows = _differences(mod, pres.generators)
                    cocycles = ride_along_kernel(as_matrix(a_rows, len(b_rows)), m)
                    vectors = [cocycles.column(j) for j in range(cocycles.cols)]
                    logged, dense = both_kernel_paths(a_rows, b_rows, m, vectors)
                    assert logged == dense, (name, mod.label, sub)
                    assert logged[0] == _subgroup_h1(mod, sub).structure
                    checked += 1
        assert checked == 3 * sum(len(all_subgroups(builtin_group(name)))
                                  for name in TestFullCochainOracle.BUILTINS)


def old_pair_subgroup_h1(mod, sub):
    """H^1(H, M) from the `_subgroup_h1` system and the old pair."""
    g, m = mod.group, mod.modulus
    pres = sub.presentation()
    return old_pair_quotient(_fox_system(g, mod, pres), _differences(mod, pres.generators), m)


def old_pair_restriction_kernel(g, mod, subgroups):
    """The kernel over every listed member, maximal or not, from `res_h1`'s
    rows scaled into conditions mod m and the old pair."""
    m = mod.modulus
    factors = h1(g, mod).structure.invariant_factors
    rows = []
    for sub in subgroups:
        res = res_h1(g, sub, mod)
        deltas = _subgroup_h1(mod, sub).structure.invariant_factors
        rows += [[m // d * x for x in res.row(i)] for i, d in enumerate(deltas)]
    relations = [[d if i == j else 0 for j in range(len(factors))] for i, d in enumerate(factors)]
    return old_pair_quotient(rows, relations, m).structure


class TestKernelRoutineAgainstOldPair:
    """Each quotient the engine reads off one elimination (`QuotientPresentation`)
    against the ride-along kernel followed by the span quotient (the old
    pair): H^1 of every subgroup, Tate H^0, and the restriction kernel of
    every subgroup."""

    def modules(self):
        out = []
        for name in TestFullCochainOracle.BUILTINS:
            g = builtin_group(name)
            out += [(g, augmentation_ideal(g, g.order)[0]), (g, group_ring(g, g.order))]
        return out + sweep_modules()

    def test_structures(self):
        checked = 0
        for g, mod in self.modules():
            norm = mod._matrix((x, 1) for x in range(g.order))
            assert tate_h0(g, mod) == old_pair_quotient(
                _differences(mod, g.generating_set()), norm, mod.modulus).structure, \
                (g, mod.label)
            subs = all_subgroups(g)
            for sub in subs:
                assert (_subgroup_h1(mod, sub).structure
                        == old_pair_subgroup_h1(mod, sub).structure), (g, mod.label, sub)
                assert (_restriction_kernel(g, mod, [sub]).structure
                        == old_pair_restriction_kernel(g, mod, [sub])), (g, mod.label, sub)
                checked += 1
            assert (_restriction_kernel(g, mod, subs).structure
                    == old_pair_restriction_kernel(g, mod, subs)), (g, mod.label)
        assert checked == sum(len(all_subgroups(g)) for g, _ in self.modules())


class TestOneConstructor:
    """Every quotient the engine computes is built by
    `QuotientPresentation.__init__`, the span the benchmark tracer wraps; a
    kernel forced to 0 is returned without one."""

    def test_every_presentation_comes_from_the_constructor(self, monkeypatch):
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        made = []
        init = QuotientPresentation.__init__

        def recorded(self, a_rows, b_rows, modulus):
            init(self, a_rows, b_rows, modulus)
            made.append(self)

        monkeypatch.setattr(QuotientPresentation, "__init__", recorded)

        def among_made(pres):
            return any(pres is other for other in made)

        def built(structure):
            return any(structure is pres.structure for pres in made)

        g = builtin_group("zlxzln:2:3")
        ideal = augmentation_ideal(g, g.order)[0]
        assert not ideal._subgroup_h1_cache
        assert among_made(h1(g, ideal).presentation)
        for sub in all_subgroups(g):
            assert among_made(_subgroup_h1(ideal, sub).presentation), sub
        assert built(tate_h0(g, ideal))
        assert built(sha_cyc(g, ideal))
        records = _biquadratic_model(3, 7)[0]
        klein = records[0].subgroup.parent
        klein_ideal = augmentation_ideal(klein, 4)[0]
        sigma0 = [rec.key for rec in records if rec.subgroup.order == 4]
        assert built(sha_sigma(klein, klein_ideal, records, sigma0).structure)
        # with every record kept, G is in the family: its kernel is 0, and
        # no quotient is built for it
        before = len(made)
        assert sha_sigma(klein, klein_ideal, records).structure.is_trivial
        assert len(made) == before
        for report in dimension_shift_check(g):
            assert built(report.ideal_h1) and built(report.ring_h1), report.subgroup
        assert built(quotient_structure(IntMatrix.from_rows([[2], [0]]), IntMatrix.identity(2), 4))


class TestMaximalMembers:
    """A restriction kernel is solved on the members of its family that no
    other member contains: res_H = res^K_H o res_K for H <= K."""

    @pytest.mark.parametrize("name, solved", [("z8", 1), ("zlxzln:2:3", 6)])
    def test_sha_cyc_solves_only_the_maximal_cyclic_subgroups(self, monkeypatch, name, solved):
        # a fresh ideal: G, then each maximal cyclic subgroup once; z8 is
        # its own maximal cyclic subgroup, and Z/8 x Z/2 has 5 of its 8.
        # The rows of res_h1, the one restriction routine, are read once per
        # maximal one, and never for z8: a family containing G has kernel 0
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        calls = []
        restriction_rows = cohomology._restriction_rows

        def counted(group, sub, module):
            calls.append(sub)
            return restriction_rows(group, sub, module)

        monkeypatch.setattr(cohomology, "_restriction_rows", counted)
        g = builtin_group(name)
        ideal = augmentation_ideal(g, g.order)[0]
        assert not ideal._subgroup_h1_cache
        assert sha_cyc(g, ideal).order == g.order // g.exponent()
        assert len(ideal._subgroup_h1_cache) == solved
        assert len(calls) == {"z8": 0, "zlxzln:2:3": 5}[name]

    def test_foreign_subgroup_inside_a_member_rejected(self):
        # every index of a subgroup of z2xz4 lies inside z8 itself
        g = builtin_group("z8")
        ideal = augmentation_ideal(g, 8)[0]
        for sub in cyclic_subgroups(builtin_group("z2xz4")):
            assert set(sub.elements) < set(full_subgroup(g).elements)
            with pytest.raises(ValueError, match="different group"):
                _restriction_kernel(g, ideal, [full_subgroup(g), sub])

    def test_biquadratic_records_match_the_full_family(self):
        # Q(sqrt p, sqrt q): every set of excluded records, on the Cayley
        # kernel over every cyclic subgroup and every kept record
        checked = 0
        for p, q in ((3, 7), (5, 13), (7, 17), (13, 17), (-1, 2), (3, 17)):
            records = _biquadratic_model(p, q)[0]
            g = records[0].subgroup.parent
            keys = [rec.key for rec in records]
            for mod in (augmentation_ideal(g, 4)[0], group_ring(g, 4),
                        trivial_module(g, 2), trivial_module(g, 4)):
                for mask in range(2 ** len(keys)):
                    excluded = [k for i, k in enumerate(keys) if mask >> i & 1]
                    family = cyclic_subgroups(g) + [
                        rec.subgroup for rec in records if rec.key not in excluded]
                    assert (sha_sigma(g, mod, records, excluded).structure
                            == cayley_restriction_kernel(g, mod, family)), (p, q, excluded)
                    checked += 1
        assert checked == 4 * (8 + 8 + 8 + 8 + 2 + 8)


class TestFamilyContainingG:
    """A family with a member of order |G| has kernel 0, returned without
    elimination (res_G is the identity); the same family solved member by
    member (`solved_restriction_kernel`) gives the same ShaResult."""

    @staticmethod
    def nontrivial_h1(g, modules):
        full = full_subgroup(g)
        for mod in modules:
            for family in ([full], cyclic_subgroups(g) + [full], all_subgroups(g)):
                solved = solved_restriction_kernel(g, mod, family)
                assert solved.structure.is_trivial, mod.label
                assert _restriction_kernel(g, mod, family) == solved, mod.label
        return sum(not h1(g, mod).structure.is_trivial for mod in modules)

    def test_acceptance_battery(self):
        rng = random.Random(32)
        nontrivial = 0
        for name in BATTERY:
            g = builtin_group(name)
            modules = [augmentation_ideal(g, g.order)[0], group_ring(g, g.order),
                       trivial_module(g, 4)]
            modules += [random_gmodule(g, rng) for _ in range(3)]
            nontrivial += self.nontrivial_h1(g, modules)
        # the rule is checked on classes, not only on zero groups
        assert nontrivial >= 25

    def test_seeded_sweep(self):
        nontrivial = sum(self.nontrivial_h1(g, [mod]) for g, mod in sweep_modules())
        assert nontrivial >= 10


class TestSubgroupGuard:
    """A subgroup of another group is an input error on every path."""

    PAIRS = [("z4", "klein4"), ("z8", "z2xz4"), ("z8", "z2xz2xz2")]

    def test_foreign_cyclic_subgroup_rejected(self):
        for name, other in self.PAIRS:
            g = builtin_group(name)
            ideal = augmentation_ideal(g, g.order)[0]
            for sub in cyclic_subgroups(builtin_group(other)):
                with pytest.raises(ValueError, match="different group"):
                    dimension_shift_check(g, [sub])
                with pytest.raises(ValueError, match="different group"):
                    res_h1(g, sub, ideal)
                with pytest.raises(ValueError, match="different group"):
                    _restriction_kernel(g, ideal, cyclic_subgroups(g) + [sub])
                # H^1(G, (Z/n)[G]) = 0: the family is still checked
                with pytest.raises(ValueError, match="different group"):
                    _restriction_kernel(g, group_ring(g, g.order), [sub])

    def test_no_group_or_module_is_built_for_a_subgroup(self, monkeypatch):
        # fresh module caches, so nothing is served from an earlier test
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        g = builtin_group("zlxzln:2:3")
        klein = subgroup_generated(g, [g.names.index("(4,0)"), g.names.index("(0,1)")])
        assert klein.order == 4 and not klein.is_cyclic()
        # the ring, the ideal and the trivial module are built over the whole
        # groups named here, G and the group of certify(2, 2, 5)
        whole = (g, builtin_group("zlxzln:2:2"))
        build = GModule._from_validated
        with monkeypatch.context() as mp:
            def refuse(*args, **kwargs):
                raise AssertionError("a standalone group or module was built for a subgroup")

            def whole_groups_only(group, *args):
                if group not in whole:
                    refuse()
                return build(group, *args)

            mp.setattr(Subgroup, "as_group", refuse)
            mp.setattr(GModule, "_from_validated", staticmethod(whole_groups_only))
            cert = certify(2, 2, 5)  # its place subgroups are cyclic or all of G
            ideal = augmentation_ideal(g, g.order)[0]
            kernel = sha_sigma(g, ideal, [PlaceRecord(3, klein, True)]).structure
            shifts = dimension_shift_check(g, all_subgroups(g))
        assert cert.conclusion == "certified"
        assert kernel == cayley_restriction_kernel(g, ideal, cyclic_subgroups(g) + [klein])
        assert len(shifts) == len(all_subgroups(g)) and all(r.passed for r in shifts)


class TestOneRecord:
    """`_subgroup_h1` is the one H^1 solver and cache: it returns an H1Result
    for every subgroup, G included, and checks A x = 0 on every generator
    column of each."""

    def test_h1_is_the_full_subgroup_record(self):
        for name in ("z2", "klein4", "q8", "zlxzln:2:3"):
            g = builtin_group(name)
            for mod in (augmentation_ideal(g, g.order)[0], trivial_module(g, 6)):
                res = h1(g, mod)
                assert res is h1(g, mod)
                assert res is _subgroup_h1(mod, full_subgroup(g))
                assert res.structure is res.presentation.structure

    def test_proper_subgroup_record(self):
        # the tree of a proper subgroup reaches only its elements, and a
        # class expands to a cocycle of H with None elsewhere
        g = builtin_group("z2xz4")
        ideal = augmentation_ideal(g, 8)[0]
        for sub in all_subgroups(g)[1:-1]:
            res = _subgroup_h1(ideal, sub)
            assert isinstance(res, H1Result) and res is _subgroup_h1(ideal, sub)
            assert (res.group, res.module) == (g, ideal)
            assert res.structure == AbGroupStructure([sub.order])
            for col in res.presentation.generator_columns:
                z = res.cocycle(col)
                assert [x for x in range(g.order) if z[x] is not None] == list(sub.elements)
                local = restrict(ideal, sub)
                assert is_cocycle(local.group, local, [z[x] for x in sub.elements])

    @staticmethod
    def faulty_members(monkeypatch):
        """Fresh module caches, and every quotient the cohomology layer builds
        on one generator of the rank-3 ideal of klein4 (a cyclic member)
        given a generator column outside ker A."""
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})

        class Faulty(QuotientPresentation):
            __slots__ = ()

            def __init__(self, a_rows, b_rows, modulus):
                super().__init__(a_rows, b_rows, modulus)
                if self.dim == 3 and self.generator_columns:
                    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
                    bad = next(u for u in units if not self._in_kernel(u))
                    self.generator_columns = (bad,) * len(self.generator_columns)

        monkeypatch.setattr(cohomology, "QuotientPresentation", Faulty)

    def test_check_runs_on_a_proper_member(self, monkeypatch):
        self.faulty_members(monkeypatch)
        g = builtin_group("klein4")
        ideal = augmentation_ideal(g, 4)[0]
        assert h1(g, ideal).structure == AbGroupStructure([4])  # G itself is sound
        with pytest.raises(AssertionError, match="lifted representative is not a normalized cocycle"):
            sha_cyc(g, ideal)

    def test_check_through_the_cli(self, monkeypatch, capsys):
        self.faulty_members(monkeypatch)
        assert main(["sha-cyc", "--group", "builtin:klein4", "--module", "aug"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: lifted representative is not a normalized cocycle\n"


def cayley_pairs():
    """(group, module, generators of a subgroup) for the Cayley-presentation
    check: every subgroup of each builtin group with four modules, every
    subgroup of each sweep module's group, A5 with five modules, and A5
    inside S5 with two."""
    out = []
    names = ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "z2xz4", "z3xz3", "z2xz2xz2",
             "s3", "q8", "zlxzln:2:3", "zlxzln:3:1"]
    for name in names:
        g = builtin_group(name)
        n = g.order
        mods = (augmentation_ideal(g, n)[0], group_ring(g, n),
                trivial_module(g, 4), trivial_module(g, 6))
        out += [(g, mod, sub.generating_set()) for sub in all_subgroups(g) for mod in mods]
    for g, mod in sweep_modules():
        out += [(g, mod, sub.generating_set()) for sub in all_subgroups(g)]
    a5 = alternating_group_5()
    out += [(a5, mod, a5.generating_set()) for mod in [augmentation_ideal(a5, 60)[0]]
            + [trivial_module(a5, m) for m in (2, 3, 4, 6)]]
    s5 = symmetric_group_5()
    a5_in_s5 = subgroup_generated(s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")])
    out += [(s5, mod, a5_in_s5.generating_set())
            for mod in (augmentation_ideal(s5, 120)[0], group_ring(s5, 120))]
    return out


class TestCayleyPresentation:
    """`_fox_system` on `_cayley_presentation` writes the conditions of the
    edge-by-edge oracle `_cayley_system`, row for row, on the same tree."""

    def test_matches_the_cayley_system(self):
        pairs = cayley_pairs()
        for group, mod, gens in pairs:
            pres = _cayley_presentation(group, gens)
            d1, tree = _cayley_system(group, mod, gens)
            assert pres.generators == tuple(gens)
            assert pres.tree == tuple(tree), (group, mod.label, gens)
            assert _fox_system(group, mod, pres) == [d1.row(i) for i in range(d1.rows)], \
                (group, mod.label, gens)
        assert len(pairs) == 324 + 200 + 5 + 2  # builtins, sweep, A5, A5 in S5

    def test_not_solvable_subgroup_solves_on_it(self):
        s5 = symmetric_group_5()
        a5 = subgroup_generated(s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")])
        local = _subgroup_h1(trivial_module(s5, 2), a5)
        expected = _cayley_presentation(s5, a5.generating_set())
        assert (local.generators, local.tree) == (expected.generators, expected.tree)
        assert local.presentation.structure == AbGroupStructure()  # A5 is perfect


class TestNotSolvableFallback:
    """A5 has no polycyclic presentation: h1 solves on its Cayley-graph
    presentation."""

    def test_trivial_modules_match_full_cochains(self):
        a5 = alternating_group_5()
        for m in (2, 4):
            mod = trivial_module(a5, m)
            res = h1(a5, mod)
            assert res.generators == a5.generating_set()
            assert res.structure == full_cochain_h1(a5, mod) == AbGroupStructure()

    def test_point_module_mod_3(self):
        # Shapiro: H^1(A5, F_3[A5/A4]) = H^1(A4, F_3) = Hom(A4, Z/3) = Z/3
        a5 = alternating_group_5()
        a4 = subgroup_generated(a5, [a5.names.index("(0 1 2)"), a5.names.index("(0 1)(2 3)")])
        assert a4.order == 12
        mats, dim = _coset_permutation(a5, a4)
        mod = GModule(a5, 3, dim, mats)
        res = h1(a5, mod)
        assert res.structure == AbGroupStructure([3])
        assert all(all_pairs_is_cocycle(a5, mod, res.cocycle(col))
                   for col in res.presentation.generator_columns)
        assert sha_cyc(a5, mod) == cayley_restriction_kernel(a5, mod, cyclic_subgroups(a5))


def point_module(group, sub, m):
    """The permutation module on the cosets G/H, over Z/m."""
    mats, dim = _coset_permutation(group, sub)
    return GModule(group, m, dim, mats)


class TestGeneratorValues:
    """A class is its vector of values at the generators: the engine reads
    it at a subgroup's generators by walking G's tree, and only
    `H1Result.cocycle` expands it to all of G."""

    def test_res_h1_matches_the_expanded_read(self):
        # every subgroup of each group up to order 16, then the cyclic
        # subgroups of A5, and A5 inside S5 with its cyclic subgroups there
        pairs = [(g, mod, all_subgroups(g)) for g, mod in battery_modules() + sweep_modules()]
        g = builtin_group("zlxzln:2:3")
        pairs += [(g, mod, all_subgroups(g)) for mod in (
            augmentation_ideal(g, 16)[0], group_ring(g, 16), trivial_module(g, 4))]
        a5 = alternating_group_5()
        a4 = subgroup_generated(a5, [a5.names.index("(0 1 2)"), a5.names.index("(0 1)(2 3)")])
        pairs += [(a5, mod, cyclic_subgroups(a5)) for mod in (
            augmentation_ideal(a5, 60)[0], trivial_module(a5, 6), point_module(a5, a4, 3))]
        s5 = symmetric_group_5()
        a5_in_s5 = subgroup_generated(
            s5, [s5.names.index("(0 1 2 3 4)"), s5.names.index("(0 1 2)")])
        s4 = subgroup_generated(s5, [s5.names.index("(0 1 2 3)"), s5.names.index("(0 1)")])
        inside = [a5_in_s5] + [c for c in cyclic_subgroups(s5)
                               if set(c.elements) <= set(a5_in_s5.elements)]
        pairs += [(s5, mod, inside) for mod in (
            trivial_module(s5, 2), trivial_module(s5, 4), point_module(s5, s4, 3))]
        checked = nonzero = 0
        for g, mod, subs in pairs:
            for sub in subs:
                mat = res_h1(g, sub, mod)
                rows = [list(mat.row(i)) for i in range(mat.rows)]
                assert rows == expanded_res_h1(g, sub, mod), (g, mod.label, sub)
                nonzero += any(map(any, rows))
                checked += 1
        assert (checked, nonzero) == (684, 224)

    def test_the_engine_never_expands(self, monkeypatch, capsys):
        # fresh module caches, so every H^1 is solved while expansion raises
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        with monkeypatch.context() as mp:
            def refuse(self, values):
                raise AssertionError("a class was expanded to all of G")

            mp.setattr(H1Result, "cocycle", refuse)
            g = builtin_group("zlxzln:2:3")
            ideal = augmentation_ideal(g, 16)[0]
            cyc = sha_cyc(g, ideal)
            records = _biquadratic_model(3, 17)[0]
            klein = records[0].subgroup.parent
            klein_ideal = augmentation_ideal(klein, 4)[0]
            kernels = [sha_sigma(klein, klein_ideal, records, excluded).structure
                       for excluded in ([], ["3"], ["3", "17"])]
            restrictions = [res_h1(g, sub, ideal) for sub in all_subgroups(g)]
            h0 = tate_h0(g, trivial_module(g, 16))
            shifts = dimension_shift_check(g, all_subgroups(g))
            printed = []
            for ell, n, p in ((2, 2, 5), (3, 1, 7)):
                assert main(["certify", "--ell", str(ell), "--n", str(n), "--p", str(p)]) == 0
                printed.append((capsys.readouterr().out, GOLDEN_DIR / f"certify_{ell}_{n}_{p}.json"))
        assert cyc == AbGroupStructure([2])
        family = cyclic_subgroups(klein)
        assert kernels == [cayley_restriction_kernel(klein, klein_ideal, family + [
            rec.subgroup for rec in records if rec.key not in excluded])
            for excluded in ([], ["3"], ["3", "17"])]
        assert kernels[-1] == AbGroupStructure([2])
        assert [[list(m.row(i)) for i in range(m.rows)] for m in restrictions] == [
            expanded_res_h1(g, sub, ideal) for sub in all_subgroups(g)]
        assert h0 == AbGroupStructure([16])
        assert len(shifts) == len(all_subgroups(g)) and all(r.passed for r in shifts)
        for out, path in printed:
            assert out.encode() == path.read_bytes(), path.name
