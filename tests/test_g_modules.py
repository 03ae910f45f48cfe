import json
import random
import re
from math import gcd

import pytest

from tameapprox import cli, g_modules
from tameapprox.cohomology import sha_cyc
from tameapprox.finite_groups import (
    builtin_group,
    cyclic_group,
    cyclic_subgroups,
    full_subgroup,
    trivial_subgroup,
)
from tameapprox.g_modules import (
    GModule,
    ModuleMap,
    _ideal_module,
    _mul,
    _sparse,
    augmentation_ideal,
    dual_module,
    group_ring,
    module_from_json,
    restrict,
    trivial_module,
)
from tameapprox.zmod_linalg import IntMatrix

from oracle_helpers import (
    all_pairs_twist_is_multiplicative,
    dense_augmentation_exactness,
    dense_augmentation_ideal_action,
    dense_group_ring_action,
    dense_mat_mul_mod,
)
from random_modules import characters, sweep_modules

BUILTINS = ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "z2xz4", "z3xz3",
            "z2xz2xz2", "s3", "q8"]


def assert_action_homomorphism(module):
    g = module.group
    m = module.modulus
    for a in range(g.order):
        for b in range(g.order):
            left = dense_mat_mul_mod(module.action[a], module.action[b], m)
            assert left == module.action[g.table[a][b]]


class TestGroupRing:
    def test_z2_swap(self):
        g = cyclic_group(2)
        ring = group_ring(g, 4)
        assert ring.rank == 2
        assert ring.action[1] == ((0, 1), (1, 0))

    def test_klein_permutation_module(self):
        ring = group_ring(builtin_group("klein4"), 4)
        assert ring.rank == 4
        for mat in ring.action:
            for row in mat:
                assert sorted(row) == [0, 0, 0, 1]

    def test_actions_are_permutation_matrices(self):
        for name in ("z4", "s3", "q8"):
            ring = group_ring(builtin_group(name), 6)
            for mat in ring.action:
                for row in mat:
                    assert sum(row) == 1 and set(row) <= {0, 1}
            assert_action_homomorphism(ring)


class TestAugmentationIdeal:
    def test_klein_order_matches_exponent_formula(self):
        # |I| = 4^3 = 2^6 and (n+1)(ell^(n+1)-1) = 6 at ell=2, n=1
        ideal, _, _ = augmentation_ideal(builtin_group("klein4"), 4)
        assert ideal.rank == 3
        assert ideal.size == 2 ** 6

    def test_z3xz3_order(self):
        # |I| = 9^8 = 3^16 and (n+1)(ell^(n+1)-1) = 16 at ell=3, n=1
        ideal, _, _ = augmentation_ideal(builtin_group("z3xz3"), 9)
        assert ideal.rank == 8
        assert ideal.size == 3 ** 16

    def test_z2_mod2_trivial_action(self):
        # s*(s-1) = 1-s = -(s-1) == (s-1) mod 2
        ideal, _, _ = augmentation_ideal(cyclic_group(2), 2)
        assert ideal.rank == 1
        assert ideal.action[1] == ((1,),)

    def test_size_formula(self):
        for name in ("klein4", "z2xz4", "s3"):
            g = builtin_group(name)
            m = g.order
            ideal, _, _ = augmentation_ideal(g, m)
            assert ideal.size == m ** (g.order - 1)

    def test_an_equal_group_built_afresh_hits_the_cache(self, monkeypatch):
        # warm certify builds its group anew on every call and relies on this
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        first = augmentation_ideal(builtin_group("zlxzln:2:2"), 8)
        again = builtin_group("zlxzln:2:2")
        assert again is not first[0].group
        assert augmentation_ideal(again, 8)[0] is first[0]
        assert group_ring(again, 8) is group_ring(first[0].group, 8)
        assert augmentation_ideal(again, 4)[0] is not first[0]
        assert _ideal_module(again, 8) is augmentation_ideal(builtin_group("zlxzln:2:2"), 8)[0]
        assert len(g_modules._IDEAL_CACHE) == 2
        assert all(type(v) is GModule for v in g_modules._IDEAL_CACHE.values())

    def test_public_call_checks_on_every_call(self, monkeypatch):
        # only the module is cached: a cached pair of maps would skip the checks
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        g = builtin_group("s3")
        ideal, _, _ = augmentation_ideal(g, 6)

        def failing(*args):
            raise AssertionError("exactness checked")

        monkeypatch.setattr(g_modules, "_check_augmentation_exactness", failing)
        with pytest.raises(AssertionError, match="exactness checked"):
            augmentation_ideal(g, 6)
        assert _ideal_module(g, 6) is ideal

    def test_engine_builds_no_dense_matrix_and_no_map(self, monkeypatch, capsys):
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        built = []
        for cls in (IntMatrix, ModuleMap):
            init = cls.__init__

            def counting(self, *args, _init=init, _name=cls.__name__):
                built.append(_name)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        for argv in (["sha-cyc", "--group", "builtin:zlxzln:2:3", "--module", "aug"],
                     ["h1", "--group", "builtin:q8", "--module", "aug"],
                     ["verify-lemma", "--group", "builtin:z3xz3"],
                     ["dimension-shift", "--group", "builtin:klein4"],
                     ["certify", "--ell", "3", "--n", "1", "--p", "7"]):
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        # four ideals were built, not read from an earlier test: certify(3, 1, 7)
        # reads verify-lemma's (z3xz3, 9)
        assert len(g_modules._IDEAL_CACHE) == 4
        assert built == []

    def test_sha_cyc_on_the_ideal_builds_no_group_ring(self, monkeypatch, capsys):
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        assert cli.main(["sha-cyc", "--group", "builtin:q8", "--module", "aug"]) == 0
        assert json.loads(capsys.readouterr().out)["structure"] == ["2"]
        assert g_modules._RING_CACHE == {}

    def test_exact_sequence(self):
        for name in BUILTINS:
            g = builtin_group(name)
            for m in (g.order, 2, 6):
                ideal, incl, aug = augmentation_ideal(g, m)
                assert dense_augmentation_exactness(incl.matrix, aug.matrix, m), (name, m)
                # aug surjective: the identity basis vector maps to 1
                assert aug.apply([1] + [0] * (g.order - 1)) == (1,)

    def test_fast_exactness_check_rejects_what_the_dense_check_rejects(self):
        rng = random.Random(0xE8AC7)
        rejected = 0
        for name in BUILTINS:
            g = builtin_group(name)
            basis = [h for h in range(g.order) if h != g.identity]
            for m in (g.order, 2, 6):
                _, incl, aug = augmentation_ideal(g, m)
                g_modules._check_augmentation_exactness(incl.matrix, aug.matrix, basis, m)
                # aug times a prime divisor of m still kills im incl, but is not onto
                mutants = [(incl.matrix, IntMatrix(1, g.order, [d] * g.order))
                           for d in (2, 3) if m % d == 0]
                if g.order > 2:
                    mutants.append((merged_columns(incl.matrix, 0, g.order - 2), aug.matrix))
                for _ in range(12):
                    if rng.random() < 0.4:
                        mutants.append((incl.matrix, mutate(rng, aug.matrix)))
                    else:
                        mutants.append((mutate(rng, incl.matrix), aug.matrix))
                for bad_incl, bad_aug in mutants:
                    if dense_augmentation_exactness(bad_incl, bad_aug, m):
                        continue
                    rejected += 1
                    with pytest.raises(AssertionError):
                        g_modules._check_augmentation_exactness(bad_incl, bad_aug, basis, m)
        assert rejected > 300


def merged_columns(mat, i, j):
    """`mat` with columns i and j both replaced by their sum: the diagonal at
    the basis rows and aug o incl = 0 survive, injectivity does not."""
    rows = [list(row) for row in mat._data]
    for row in rows:
        row[i] = row[j] = row[i] + row[j]
    return IntMatrix.from_rows(rows)


def mutate(rng, mat):
    """`mat` with one to three entries changed to other values mod at most 6."""
    entries = list(mat.entries)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(entries))
        entries[i] = rng.choice([x for x in range(-1, 6) if x != entries[i]])
    return IntMatrix(mat.rows, mat.cols, entries)


class TestModuleValidation:
    def test_rejects_non_homomorphism(self):
        g = cyclic_group(2)
        bad = [((1, 0), (0, 1)), ((1, 1), (0, 1))]  # order of action(1) is infinite mod 4? no: not an involution
        with pytest.raises(ValueError, match="homomorphism"):
            GModule(g, 4, 2, bad)

    def test_rejects_bad_identity(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError, match="identity"):
            GModule(g, 4, 1, [((3,),), ((1,),)])

    def test_module_map_equivariance_enforced(self):
        g = cyclic_group(2)
        ring = group_ring(g, 4)
        triv = trivial_module(g, 4)
        ModuleMap(ring, triv, IntMatrix.from_rows([[1, 1]]))  # augmentation: fine
        with pytest.raises(ValueError, match="commute"):
            ModuleMap(ring, triv, IntMatrix.from_rows([[1, 0]]))

    def test_module_map_checked_on_every_generator(self):
        # the generators of q8 are (-1, i, j); left translation by j
        # commutes with the first, -1, but not with the second, i
        g = builtin_group("q8")
        first, second, j = g.generating_set()
        ring = group_ring(g, 8)
        mat = ring.action[j]
        for s, commutes in ((first, True), (second, False)):
            left = dense_mat_mul_mod(ring.action[s], mat, 8)
            assert (left == dense_mat_mul_mod(mat, ring.action[s], 8)) is commutes
        with pytest.raises(ValueError, match=f"commute with the action of element {second}$"):
            ModuleMap(ring, ring, IntMatrix.from_rows(mat))

    def test_sparse_mul_matches_dense_product(self):
        rng = random.Random(314)
        for _ in range(200):
            m = rng.choice([2, 3, 4, 8, 9, 25])
            rows, inner, cols = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            density = rng.choice([0.0, 0.2, 0.5, 1.0])

            def entry():
                return rng.randint(-2 * m, 2 * m) if rng.random() < density else 0

            a = tuple(tuple(entry() for _ in range(inner)) for _ in range(rows))
            b = tuple(tuple(rng.randint(0, m - 1) for _ in range(cols)) for _ in range(inner))
            assert _mul(_sparse(a, m), _sparse(b, m), m) == \
                _sparse(dense_mat_mul_mod(a, b, m), m)

    def test_init_count_for_sha_cyc(self, monkeypatch):
        # ideal, ring and the trivial target of the augmentation are built by
        # formula and not scanned (TestSparseRows runs the scan on them); a
        # module read from JSON is scanned once; no module is built for a
        # subgroup
        monkeypatch.setattr(g_modules, "_RING_CACHE", {})
        monkeypatch.setattr(g_modules, "_IDEAL_CACHE", {})
        labels = []
        check = GModule._check_and_set

        def counting_check(self, group, m, r, rows, label):
            labels.append(label)
            check(self, group, m, r, rows, label)

        monkeypatch.setattr(GModule, "_check_and_set", counting_check)
        g = builtin_group("zlxzln:2:3")
        ideal, _, _ = augmentation_ideal(g, g.order)
        assert str(sha_cyc(g, ideal)) == "Z/2"
        assert labels == []
        action = {str(x): [list(row) for row in ideal.act_matrix(x)] for x in range(g.order)}
        from_json = module_from_json(g, {"modulus": 16, "rank": ideal.rank, "action": action})
        assert str(sha_cyc(g, from_json)) == "Z/2"
        assert labels == ["module from JSON"]

    def test_module_from_json(self):
        g = cyclic_group(2)
        mod = module_from_json(g, {
            "modulus": 5, "rank": 1, "action": {"0": [[1]], "1": [[4]]},
        })
        assert mod.act(1, (2,)) == (3,)
        with pytest.raises(ValueError, match="element 1"):
            module_from_json(g, {"modulus": 5, "rank": 1, "action": {"0": [[1]]}})

    @pytest.mark.parametrize("key", ["7", "-1", "01", 2, -1])
    def test_module_from_json_rejects_a_key_naming_no_element(self, key):
        action = {"0": [[1]], "1": [[3]], key: [[1]]}
        with pytest.raises(ValueError, match=f"'action' key {key!r} names no element"):
            module_from_json(cyclic_group(2), {"modulus": 4, "rank": 1, "action": action})

    @pytest.mark.parametrize("key", [True, False, 1.0, 0.0])
    def test_module_from_json_rejects_a_key_of_another_type(self, key):
        # each equals an element index, but is not a JSON key nor an index
        action = {"0": [[1]], "1": [[3]], key: [[1]]}
        message = f"module JSON 'action' key {key!r} is not a string or an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            module_from_json(cyclic_group(2), {"modulus": 4, "rank": 1, "action": action})

    @pytest.mark.parametrize("action, element", [
        ({"0": [[1]], "1": [[3]], 1: [[1]]}, 1),
        ({0: [[1]], "0": [[1]], "1": [[3]]}, 0),
    ])
    def test_module_from_json_rejects_an_element_given_twice(self, action, element):
        message = f"module JSON 'action' gives element {element} twice, as '{element}' and as {element}"
        with pytest.raises(ValueError, match=re.escape(message)):
            module_from_json(cyclic_group(2), {"modulus": 4, "rank": 1, "action": action})

    def test_module_from_json_takes_integer_keys(self):
        # Python callers may key the action by the element index itself
        g = cyclic_group(2)
        for action in ({0: [[1]], 1: [[3]]}, {0: [[1]], "1": [[3]]}):
            mod = module_from_json(g, {"modulus": 4, "rank": 1, "action": action})
            assert tuple(mod.action) == (((1,),), ((3,),))


class TestRestrict:
    def test_trivial_subgroup_acts_trivially(self):
        g = builtin_group("klein4")
        ring = group_ring(g, 4)
        res = restrict(ring, trivial_subgroup(g))
        assert res.group.order == 1
        assert res.action[0] == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

    def test_full_group_is_same_module(self):
        # the module itself, so its cached H^1 serves the full subgroup too
        g = builtin_group("klein4")
        ring = group_ring(g, 4)
        assert restrict(ring, full_subgroup(g)) is ring

    def test_klein_ring_restricted_to_order_two(self):
        # oracle: left translation by an involution splits the 4 basis
        # vectors into two free orbits, so the action is two disjoint swaps
        g = builtin_group("klein4")
        ring = group_ring(g, 4)
        sub = cyclic_subgroups(g)[1]
        res = restrict(ring, sub)
        assert res.group.order == 2
        nontriv = res.action[1]
        moved = [i for i in range(4) if nontriv[i][i] == 0]
        assert len(moved) == 4  # no fixed basis vector
        for i in range(4):
            j = next(k for k in range(4) if nontriv[k][i] == 1)
            assert nontriv[i][j] == 1 and j != i

    def test_shares_parent_action_and_stays_a_homomorphism(self):
        for name in BUILTINS:
            g = builtin_group(name)
            for module in (augmentation_ideal(g, g.order)[0], group_ring(g, g.order)):
                m = module.modulus
                for sub in cyclic_subgroups(g):
                    res = restrict(module, sub)
                    k = res.group
                    assert k.order == sub.order
                    assert all(res.action_rows[i] is module.action_rows[x]
                               for i, x in enumerate(sub.elements))
                    ident = tuple(tuple(int(i == j) for j in range(module.rank))
                                  for i in range(module.rank))
                    assert res.action[k.identity] == ident
                    for a in range(k.order):
                        for b in range(k.order):
                            assert dense_mat_mul_mod(res.action[a], res.action[b], m) == \
                                res.action[k.table[a][b]], (name, module.label, sub)


class TestDual:
    def test_trivial_action_self_dual(self):
        g = builtin_group("klein4")
        triv = trivial_module(g, 4, rank=2)
        dual = dual_module(triv)
        assert dual.action == triv.action

    def test_double_dual_restores_action(self):
        g = builtin_group("s3")
        ideal, _, _ = augmentation_ideal(g, 6)
        double = dual_module(dual_module(ideal))
        assert double.action == ideal.action
        assert double.modulus == ideal.modulus

    def test_dual_is_transpose_inverse(self):
        g = builtin_group("klein4")
        ideal, _, _ = augmentation_ideal(g, 4)
        dual = dual_module(ideal)
        for x in range(g.order):
            inv = g.inverse(x)
            src = ideal.action[inv]
            assert dual.action[x] == tuple(
                tuple(src[j][i] % 4 for j in range(3)) for i in range(3)
            )
        assert_action_homomorphism(dual)

    def test_twist_must_be_multiplicative(self):
        g = cyclic_group(2)
        ideal, _, _ = augmentation_ideal(g, 4)
        dual_module(ideal, {0: 1, 1: 3})  # 3^2 = 9 == 1 mod 4: a character
        with pytest.raises(ValueError, match="unit"):
            dual_module(ideal, {0: 1, 1: 2})
        g4 = cyclic_group(4)
        ideal4, _, _ = augmentation_ideal(g4, 4)
        with pytest.raises(ValueError, match="multiplicative"):
            dual_module(ideal4, {0: 1, 1: 3, 2: 3, 3: 3})

    def test_twist_missing_an_element_is_refused(self):
        ring = group_ring(cyclic_group(4), 4)
        with pytest.raises(ValueError, match=re.escape("twist(2) has no value")):
            dual_module(ring, [1, 1])
        with pytest.raises(ValueError, match=re.escape("twist(1) has no value")):
            dual_module(ring, {0: 1})

    def test_nontrivial_twist_changes_action(self):
        g = cyclic_group(2)
        triv = trivial_module(g, 4)
        twisted = dual_module(triv, {0: 1, 1: 3})
        assert twisted.action[1] == ((3,),)
        assert_action_homomorphism(twisted)

    def test_dual_of_rank_zero_module(self):
        for name in ("z2", "klein4", "s3"):
            g = builtin_group(name)
            zero = trivial_module(g, 4, 0)
            dual = dual_module(zero)
            assert (dual.modulus, dual.rank) == (4, 0)
            assert dual.action_rows == zero.action_rows

    def test_twist_verdict_matches_all_pairs(self):
        # characters, one-value perturbations of them and unit-valued maps
        # with twist(e) = 1, over every builtin group at moduli 2..12
        rng = random.Random(4242)
        verdicts = []
        for name in BUILTINS:
            g = builtin_group(name)
            others = [x for x in range(g.order) if x != g.identity]
            for m in range(2, 13):
                units = [u for u in range(1, m) if gcd(u, m) == 1]
                chars = characters(g, m)
                twists = [list(chi) for chi in rng.sample(chars, min(4, len(chars)))]
                for _ in range(12):
                    tw = list(rng.choice(chars))
                    tw[rng.choice(others)] = rng.choice(units)
                    twists.append(tw)
                for _ in range(8):
                    tw = [rng.choice(units) for _ in range(g.order)]
                    tw[g.identity] = 1
                    twists.append(tw)
                module = trivial_module(g, m)
                for tw in twists:
                    try:
                        dual_module(module, tw)
                        accepted = True
                    except ValueError as exc:
                        assert "not multiplicative" in str(exc)
                        accepted = False
                    assert accepted == all_pairs_twist_is_multiplicative(g, tw, m), (name, m, tw)
                    verdicts.append(accepted)
        assert verdicts.count(False) > 1000 and verdicts.count(True) > 500, len(verdicts)


class TestEquivariance:
    def test_inclusion_and_augmentation_equivariant(self):
        for name in ("klein4", "s3"):
            g = builtin_group(name)
            m = g.order
            ideal, incl, aug = augmentation_ideal(g, m)
            for x in range(g.order):
                left = dense_mat_mul_mod(group_ring(g, m).action[x], incl.matrix._data, m)
                right = dense_mat_mul_mod(incl.matrix._data, ideal.action[x], m)
                assert left == right
                assert aug.apply(incl.matrix.column(0)) == (0,)

    def test_generator_based_validation_large_group(self):
        g = cyclic_group(72)  # a bad matrix off the generating set is still caught
        mod = trivial_module(g, 5)
        assert mod.rank == 1
        with pytest.raises(ValueError, match="homomorphism"):
            action = [((1,),)] * 72
            action[3] = ((2,),)
            GModule(g, 5, 1, action)


def _sweep_groups():
    """The 12 builtin groups and the distinct groups of the oracle sweep."""
    groups = [builtin_group(name) for name in BUILTINS]
    seen = []
    for group, _ in sweep_modules():
        if not any(group is x for x in seen):
            seen.append(group)
    return groups + seen


def _ideal_and_ring(group, m):
    return augmentation_ideal(group, m)[0], group_ring(group, m)


def _dense(rows, r):
    """Sparse action rows, one list per element, as dense r x r matrices."""
    return [[[dict(row).get(j, 0) for j in range(r)] for row in mat] for mat in rows]


class TestDenseBlocks:
    """`GModule._matrix`, the one place sparse rows become dense, against
    dense matrices built without it: the ring's and the ideal's by formula,
    a sweep module's straight from its sparse rows."""

    def cases(self):
        for group in _sweep_groups():
            for m in sorted({group.order, 2, 6} - {1}):
                ideal, ring = _ideal_and_ring(group, m)
                yield ideal, dense_augmentation_ideal_action(group, m)
                yield ring, dense_group_ring_action(group, m)
            yield trivial_module(group, 2, rank=0), [()] * group.order
        for _, module in sweep_modules():
            yield module, _dense(module.action_rows, module.rank)

    def test_matrix_is_the_group_ring_sum(self):
        rng = random.Random(0xD3)
        for module, dense in self.cases():
            n, r = module.group.order, module.rank
            fixed = [(n - 1, 2), (0, -1), (n - 1, 0), (n - 1, -3), (0, 5)]
            seeded = [(rng.randrange(n), rng.randint(-3, 3)) for _ in range(2 * n)]
            for terms in ([], [(0, 1)], fixed, seeded):
                expected = [[sum(k * dense[g][i][j] for g, k in terms) for j in range(r)]
                            for i in range(r)]
                assert module._matrix(terms) == expected, (module.label, terms)
                assert module._matrix(iter(terms)) == expected, (module.label, terms)

    def test_act_matrix_is_the_dense_matrix_mod_m(self):
        for module, dense in self.cases():
            m = module.modulus
            for g in range(module.group.order):
                assert module.act_matrix(g) == tuple(tuple(x % m for x in row)
                                                     for row in dense[g]), (module.label, g)


class TestSparseRows:
    def test_builders_match_dense_constructions(self):
        for group in _sweep_groups():
            for m in sorted({group.order, 2, 6} - {1}):
                ideal, ring = _ideal_and_ring(group, m)
                dense_ideal = dense_augmentation_ideal_action(group, m)
                dense_ring = dense_group_ring_action(group, m)
                assert tuple(ideal.action) == dense_ideal
                assert tuple(ring.action) == dense_ring
                # the dense constructor stores the same canonical rows
                assert GModule(group, m, ideal.rank, dense_ideal).action_rows == ideal.action_rows
                assert GModule(group, m, ring.rank, dense_ring).action_rows == ring.action_rows

    def test_builders_pass_the_homomorphism_scan(self):
        # the ring, the ideal and the trivial module are built by formula and
        # not scanned; the scan and the canonical form must still hold
        for group in _sweep_groups():
            for m in sorted({group.order, 2, 6} - {1}):
                for module in (*_ideal_and_ring(group, m), trivial_module(group, m)):
                    probe = GModule.__new__(GModule)
                    probe._check_and_set(group, module.modulus, module.rank,
                                         module.action_rows, module.label)
                    assert probe.action_rows is module.action_rows
                    assert module.action_rows == tuple(_sparse(mat, m) for mat in module.action)

    def test_rows_are_sparse(self):
        # the constructors have checked the canonical form; this bounds the size
        for group in _sweep_groups():
            ideal, ring = _ideal_and_ring(group, max(group.order, 2))
            assert all(len(row) == 1 for mat in ring.action_rows for row in mat)
            assert all(sum(map(len, mat)) <= 2 * ideal.rank for mat in ideal.action_rows)

    def test_nonzeros_at_order_128(self):
        g = builtin_group("zlxzln:2:6")
        ideal, _, _ = augmentation_ideal(g, g.order)
        nnz = sum(len(row) for mat in ideal.action_rows for row in mat)
        assert nnz <= 2 * g.order * ideal.rank

    def test_rejects_sign_flip_in_ideal_row(self):
        rng = random.Random(2718)
        for name in ("z4", "z6", "klein4", "s3", "q8", "z3xz3"):
            group = builtin_group(name)
            m = group.order
            ideal, _, _ = augmentation_ideal(group, m)
            for _ in range(6):
                rows = [list(mat) for mat in ideal.action_rows]
                g = rng.randrange(group.order)
                i = rng.randrange(ideal.rank)
                row = rows[g][i]
                k = rng.choice([k for k, (_, a) in enumerate(row) if 2 * a != m])
                rows[g][i] = row[:k] + ((row[k][0], m - row[k][1]),) + row[k + 1:]
                with pytest.raises(ValueError, match="homomorphism|identity"):
                    GModule(group, m, ideal.rank, _dense(rows, ideal.rank))

    def test_rejects_ring_row_at_wrong_element(self):
        rng = random.Random(1618)
        for name in ("z3", "z8", "klein4", "s3", "q8"):
            group = builtin_group(name)
            ring = group_ring(group, 6)
            n = group.order
            for _ in range(6):
                rows = [list(mat) for mat in ring.action_rows]
                g, k = rng.randrange(n), rng.randrange(n)
                h = rows[g][k][0][0]
                rows[g][k] = (((h + rng.randrange(1, n)) % n, 1),)
                with pytest.raises(ValueError, match="homomorphism|identity"):
                    GModule(group, 6, n, _dense(rows, n))
