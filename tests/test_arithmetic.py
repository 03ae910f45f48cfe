import inspect
import random

import pytest

from tameapprox import arithmetic, finite_groups, primes, zmod_linalg
from tameapprox.arithmetic import (
    KummerPair,
    SearchBoundError,
    biquadratic_place_records,
    certify,
    decomposition_subgroup,
    ellth_root_in_zell,
    factorize,
    find_p,
    find_q,
    is_prime,
    kronecker,
    legendre,
    local_square,
    sigma0_biquadratic,
    _cyclic_over_ell_holds,
    _disjoint_from_ell_holds,
    _ellth_power_locally_holds,
    _full_over_p_holds,
)
from tameapprox.cohomology import sha_sigma
from tameapprox.finite_groups import (
    DEFAULT_ORDER_LIMIT,
    Group,
    product_of_prime_powers,
    subgroup_generated,
)
from tameapprox.g_modules import _ideal_module
from tameapprox.zmod_linalg import AbGroupStructure, IntMatrix, kernel_mod

from oracle_helpers import (
    brute_is_square_in_q2,
    brute_is_square_mod_odd_prime,
    is_ellth_power_residue,
    trial_division_factor,
    two_branch_ellth_root,
)


def odd_primes_below(bound):
    return [p for p in range(3, bound) if is_prime(p)]


class TestPrimality:
    def test_small_values(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)
        assert [p for p in range(60) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_known_strong_pseudoprime_composite(self):
        # oracle: trial division exhibits a nontrivial factorization
        n = 3825123056546413051
        factors = trial_division_factor(149491) | trial_division_factor(747451)
        assert all(len(trial_division_factor(p)) == 1 for p in factors)
        assert n % 149491 == 0
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2 ** 61 - 1)  # Mersenne
        assert not is_prime(2 ** 61 + 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(2 ** 64 + 1)
        with pytest.raises(ValueError):
            is_prime(-3)

    def test_agrees_with_trial_division(self):
        for n in range(1, 2000):
            assert is_prime(n) == (len(trial_division_factor(n)) == 1
                                   and list(trial_division_factor(n).values()) == [1]
                                   and n > 1)


class TestFactorization:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-17) == {17: 1}
        assert factorize(2 ** 32 + 1) == {641: 1, 6700417: 1}


class TestResidueSymbols:
    def test_legendre_matches_brute_squares(self):
        for p in odd_primes_below(60):
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(-20, 21):
                expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
                assert legendre(a, p) == expected

    def test_kronecker_matches_legendre_at_odd_primes(self):
        for p in odd_primes_below(100):
            for a in range(-30, 31):
                assert kronecker(a, p) == legendre(a, p)

    def test_kronecker_at_two(self):
        for a in range(-30, 31):
            if a % 2 == 0:
                assert kronecker(a, 2) == 0
            else:
                assert kronecker(a, 2) == (1 if a % 8 in (1, 7) else -1)

    def test_kronecker_multiplicative(self):
        for n in range(1, 40):
            for a in range(-15, 16):
                for b in range(-15, 16):
                    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


class TestPowerResidues:
    def test_non_residue_cases(self):
        # oracle: squares mod 3 = {1}; 17 == 2 (mod 3)
        assert not is_ellth_power_residue(17, 3, 2)
        # oracle: cubes mod 7 = {1, 6}; 19 == 5 (mod 7)
        assert not is_ellth_power_residue(19, 7, 3)

    def test_one_is_every_power(self):
        for p, ell in ((7, 3), (13, 2), (13, 3)):
            assert is_ellth_power_residue(1 + p, p, ell)

    def test_rejects_undefined_criterion(self):
        with pytest.raises(ValueError, match="does not divide"):
            is_ellth_power_residue(5, 7, 5)
        with pytest.raises(ValueError, match="divides"):
            is_ellth_power_residue(14, 7, 3)

    def test_matches_brute_powers(self):
        for p in (7, 13, 19, 31):
            for ell in (2, 3):
                if (p - 1) % ell:
                    continue
                powers = {pow(x, ell, p) for x in range(1, p)}
                for q in range(1, 40):
                    if q % p == 0:
                        continue
                    assert is_ellth_power_residue(q, p, ell) == (q % p in powers)


class TestParameterSearch:
    def test_find_p_examples(self):
        assert find_p(3, 1, 2) == 7
        assert find_p(2, 1, 2) == 3
        assert find_p(2, 2, 2) == 5

    def test_find_p_respects_start(self):
        assert find_p(2, 1, 4) == 5
        assert find_p(3, 2, 2) == 19

    def test_find_q_examples(self):
        assert find_q(2, 3) == 17
        assert find_q(3, 7) == 19
        assert find_q(2, 5) == 17

    def test_find_q_minimality(self):
        # every smaller candidate in the progression fails a condition
        q = find_q(2, 3)
        for c in range(9, q, 8):
            assert not (is_prime(c) and not is_ellth_power_residue(c, 3, 2))

    def test_search_bound_exhaustion(self):
        with pytest.raises(SearchBoundError):
            find_q(2, 3, bound=10)
        with pytest.raises(SearchBoundError):
            find_p(2, 1, start=20, bound=22)


class TestLocalSquares:
    def test_examples(self):
        assert local_square(17, 2).is_square  # 17 == 1 (mod 8)
        assert not local_square(3, 5).is_square  # squares mod 5 are {1, 4}
        assert local_square(7, "inf").is_square
        assert not local_square(-7, "inf").is_square

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            local_square(12, 5)
        with pytest.raises(ValueError):
            local_square(0, 5)

    def test_rejects_a_place_that_is_not_a_prime_int(self):
        # a float or a string is not truncated or parsed to a nearby prime
        # and -3 once got is_prime's "expects a nonnegative integer"
        for place in (2.5, "5", 5.0, True, 4, "abc", -3):
            with pytest.raises(ValueError, match=f"^place {place!r} is neither a prime nor 'inf'$"):
                local_square(3, place)

    def test_odd_primes_against_brute_force(self):
        squarefree = [d for d in range(-20, 21)
                      if d and all(e == 1 for e in trial_division_factor(abs(d)).values())
                      and abs(d) != 1] + [-1]
        for p in odd_primes_below(100):
            for d in squarefree:
                assert local_square(d, p).is_square == brute_is_square_mod_odd_prime(d, p), (d, p)

    def test_q2_against_brute_lift(self):
        squarefree = [d for d in range(-25, 26)
                      if d and all(e == 1 for e in trial_division_factor(abs(d)).values())]
        for d in squarefree:
            assert local_square(d, 2).is_square == brute_is_square_in_q2(d), d


class TestDecompositionSubgroups:
    def test_pair_3_17(self):
        pair = KummerPair(3, 17)
        at2 = decomposition_subgroup(pair, 2)
        assert at2.order == 2 and at2.is_cyclic()
        # the subgroup fixes sqrt(17): it is generated by the sqrt(3)-flip (1,0)
        g = at2.parent
        assert at2.elements == subgroup_generated(g, [2]).elements
        assert decomposition_subgroup(pair, 3).order == 4
        assert decomposition_subgroup(pair, 17).order == 4

    def test_split_prime_gives_trivial_group(self):
        # a prime with (3/p) = (17/p) = 1 splits completely: trivial D_p
        pair = KummerPair(3, 17)
        split = [p for p in odd_primes_below(200)
                 if p not in (3, 17)
                 and legendre(3, p) == 1 and legendre(17, p) == 1]
        assert split, "expected at least one split prime below 200"
        for p in split[:3]:
            assert decomposition_subgroup(pair, p).order == 1

    def test_unramified_is_cyclic_generated_by_frobenius(self):
        pair = KummerPair(3, 17)
        for p in odd_primes_below(120):
            if p in (3, 17):
                continue
            sub = decomposition_subgroup(pair, p)
            g = sub.parent
            assert sub.is_cyclic()
            i = 0 if legendre(pair.a, p) == 1 else 1
            j = 0 if legendre(pair.b, p) == 1 else 1
            frob = subgroup_generated(g, [2 * i + j])
            assert sub.elements == frob.elements

    def test_full_decomposition_implies_ramified(self):
        for pair in (KummerPair(3, 17), KummerPair(5, 13), KummerPair(-7, 10)):
            ramified = set(pair.ramified_primes())
            for p in [2] + odd_primes_below(500):
                if decomposition_subgroup(pair, p).order == 4:
                    assert p in ramified, (pair, p)

    def test_rejects_a_place_that_is_not_a_prime_int(self):
        for place in (3.7, "17", 2.0, False, 9, -5):
            with pytest.raises(ValueError, match=f"^place {place!r} is neither a prime nor 'inf'$"):
                decomposition_subgroup(KummerPair(3, 17), place)

    def test_a_place_above_64_bits_gets_the_place_message(self):
        # is_prime is not deterministic there, so the label is no place of Q
        big = 2 ** 64 + 13
        with pytest.raises(ValueError, match=f"^place {big} is neither a prime nor 'inf'$"):
            local_square(3, big)
        with pytest.raises(ValueError, match=f"^place {big} is neither a prime nor 'inf'$"):
            decomposition_subgroup(KummerPair(3, 17), big)
        group = product_of_prime_powers(2, 1)
        records, _ = biquadratic_place_records(KummerPair(3, 17))
        with pytest.raises(ValueError, match=f"^unknown excluded place label '{big}'$"):
            sha_sigma(group, _ideal_module(group, 4), records, excluded=[str(big)])

    def test_every_subgroup_has_one_parent(self):
        # one Klein four-group per process, whatever the pair or the place
        pair = KummerPair(3, 17)
        parent = decomposition_subgroup(pair, 2).parent
        assert decomposition_subgroup(pair, 3).parent is parent
        assert decomposition_subgroup(KummerPair(-7, 10), "inf").parent is parent
        records, _ = biquadratic_place_records(pair)
        assert records and all(rec.subgroup.parent is parent for rec in records)
        assert parent == product_of_prime_powers(2, 1)

    def test_certificate_records_belong_to_its_group(self, monkeypatch):
        seen = []

        def spy(group, module, places, excluded=()):
            seen.append((group, places))
            return sha_sigma(group, module, places, excluded)

        monkeypatch.setattr(arithmetic, "sha_sigma", spy)
        assert certify(2, 1, 3).certified
        assert seen
        for group, places in seen:
            assert group.order == 4 and places
            assert all(rec.subgroup.parent == group for rec in places)

    def test_archimedean_place_never_full(self):
        for pair in (KummerPair(3, 17), KummerPair(-3, -17), KummerPair(-1, 2)):
            assert decomposition_subgroup(pair, "inf").order <= 2


class TestSigma0:
    def test_flagship_pair(self):
        assert sigma0_biquadratic(KummerPair(3, 17)) == [3, 17]

    def test_5_13_matches_oracle(self):
        # the value is dictated by the local-square oracle, not asserted blind
        pair = KummerPair(5, 13)
        expected = []
        for v in (2, 5, 13):
            flags = []
            for d in (5, 13, 65):
                if v == 2:
                    flags.append(brute_is_square_in_q2(d))
                else:
                    flags.append(brute_is_square_mod_odd_prime(d, v))
            # non-cyclic exactly when no nontrivial class is locally square
            if not any(flags):
                expected.append(v)
        assert sigma0_biquadratic(pair) == expected
        assert expected == [5, 13]  # frozen from the oracle above

    def test_mutual_residues_give_empty_sigma0(self):
        # b == 1 (mod 8) and each of a, b a square mod the other's primes
        assert legendre(13, 17) == 1 and legendre(17, 13) == 1
        assert sigma0_biquadratic(KummerPair(13, 17)) == []

    def test_reciprocity_forces_both_members(self):
        for p in odd_primes_below(60):
            q = find_q(2, p)
            sigma0 = sigma0_biquadratic(KummerPair(p, q))
            assert p in sigma0
            assert (q in sigma0) == (legendre(p, q) == -1)
            if p % 4 == 1:
                assert sigma0 == sorted([p, q])

    def test_place_records_cover_ramified_places(self):
        pair = KummerPair(3, 17)
        records, witnesses = biquadratic_place_records(pair)
        labels = [rec.label for rec in records]
        assert labels == [2, 3, 17]
        assert [rec.ramified for rec in records] == [True, True, True]
        pair2 = KummerPair(5, 13)  # all classes 1 mod 4: 2 unramified
        records2, _ = biquadratic_place_records(pair2)
        assert [rec.label for rec in records2] == [2, 5, 13]
        assert [rec.ramified for rec in records2] == [False, True, True]


class TestHenselWitness:
    def test_square_root_in_q2(self):
        x = ellth_root_in_zell(17, 2, 10)
        assert x is not None and (x * x - 17) % 2 ** 10 == 0
        assert ellth_root_in_zell(5, 2) is None  # 5 == 5 (mod 8)

    def test_cube_root_in_q3(self):
        x = ellth_root_in_zell(19, 3, 8)
        assert x is not None and (pow(x, 3, 3 ** 8) - 19) % 3 ** 8 == 0
        assert ellth_root_in_zell(4, 3) is None  # 4 != 1 (mod 9)

    def test_fifth_root_in_q5(self):
        q = 1 + 25 * 3  # 76 == 1 (mod 25)
        x = ellth_root_in_zell(q, 5, 6)
        assert x is not None and (pow(x, 5, 5 ** 6) - q) % 5 ** 6 == 0

    def test_one_loop_matches_the_two_branches(self):
        # a seeded sample of q < 40000, half of them in the congruence class
        # that has roots, at every precision the certificates and tests use
        rng = random.Random(22)
        checked = found = 0
        for ell in (2, 3, 5, 7):
            step = 8 if ell == 2 else ell * ell
            qs = [rng.randrange(-100, 40000) for _ in range(150)]
            qs += [1 + step * rng.randrange(40000 // step) for _ in range(150)]
            for q in qs:
                for precision in (0, 2, 3, 4, 8, 13, 24):
                    x = ellth_root_in_zell(q, ell, precision)
                    assert x == two_branch_ellth_root(q, ell, precision), (q, ell, precision)
                    checked += 1
                    found += x is not None
        assert checked == 4 * 300 * 7 and found >= 4 * 150 * 7


class TestKummerPairValidation:
    def test_valid_pairs(self):
        KummerPair(3, 17)
        KummerPair(-1, 2)
        KummerPair(-15, 6)

    def test_rejects_squares_and_duplicates(self):
        with pytest.raises(ValueError):
            KummerPair(1, 3)
        with pytest.raises(ValueError):
            KummerPair(12, 5)
        with pytest.raises(ValueError):
            KummerPair(7, 7)
        with pytest.raises(ValueError):
            KummerPair(0, 5)

    def test_third_class_is_squarefree(self):
        assert KummerPair(6, 10).third_class == 15
        assert KummerPair(-6, 10).third_class == -15


class TestCertify:
    def test_flagship(self):
        cert = certify(2, 1, 3, 17)
        assert cert.certified
        assert cert.q == 17
        assert cert.sigma0_labels == [3, 17]
        assert cert.sigma0_exact
        assert cert.sha_sigma0 == AbGroupStructure([2])
        assert cert.sha_full.is_trivial
        assert cert.sha_sigma0_minus["3"].is_trivial
        assert cert.sha_sigma0_minus["17"].is_trivial
        assert cert.module_order_exponent == 6
        assert cert.conclusion == "certified"

    def test_p_times_q_beyond_64_bits(self):
        # p*q > 2**64: the class of p*q is squarefree by construction and is
        # not factored again, where is_prime would have refused it
        p = 3508985929865264281
        cert = certify(2, 1, p)
        assert cert.q * p > 2 ** 64
        assert cert.conclusion == "certified"
        assert cert.sigma0_labels == sorted([p, cert.q])

    def test_warm_certify_builds_only_its_group(self, monkeypatch):
        # the first call's group serves every later call, and no subgroup is
        # rebuilt as a standalone group
        certify(3, 1, 7)
        sizes = []
        init = Group.__init__

        def counting_init(self, table, *args, **kwargs):
            sizes.append(len(table))
            init(self, table, *args, **kwargs)

        monkeypatch.setattr(Group, "__init__", counting_init)
        assert certify(3, 1, 7).certified
        assert sizes == []

    def test_a_warm_sweep_keeps_one_group_per_family(self, monkeypatch):
        monkeypatch.setattr(finite_groups, "_PRIME_POWER_PRODUCTS", {})
        families = [(2, 1), (2, 2), (3, 1)]
        p = dict.fromkeys(families, 2)
        for _ in range(100):  # 300 certificates, the families in turn
            for ell, n in families:
                p[ell, n] = find_p(ell, n, start=p[ell, n] + 1)
                assert certify(ell, n, p[ell, n]).certified
        assert sorted(finite_groups._PRIME_POWER_PRODUCTS) == families

    def test_flagship_auto_q(self):
        cert = certify(2, 1, 3)
        assert cert.q == 17 and cert.certified

    def test_refuted_non_prime_q(self):
        cert = certify(2, 1, 3, 15)
        assert cert.conclusion == "refuted: q_prime"
        assert not cert.certified

    def test_prime_above_64_bits_is_not_called_composite(self):
        # 2**64 + 13 is the least prime above 2**64, where is_prime is no
        # longer deterministic: certify raises instead of refuting
        big = 2 ** 64 + 13
        for args in ((2, 1, big), (2, 1, 3, big), (big, 1, 3)):
            with pytest.raises(ValueError, match=r"deterministic up to 2\*\*64"):
                certify(*args)

    def test_negative_parameters_are_refuted(self):
        assert certify(-3, 1, 7).conclusion == "refuted: ell_prime"
        assert certify(2, 1, -3).conclusion == "refuted: p_prime"
        assert certify(2, 1, 3, -17).conclusion == "refuted: q_prime"

    def test_parameters_that_are_not_ints_are_refused(self):
        # certify(2.0, 1, 3.9) once certified p = 3; the message is the
        # integer rule's, naming the first parameter that breaks it
        for args, message in (((2.0, 1, 3.9), r"ell is 2\.0"), ((2, 1.0, 3), r"n is 1\.0"),
                              ((2, 1, "3"), "p is '3'"), ((2, 1, 3, 17.0), r"q is 17\.0"),
                              ((True, 1, 3), "ell is True")):
            with pytest.raises(ValueError, match=f"^{message}, not an int$"):
                certify(*args)

    def test_default_group_limit(self):
        assert inspect.signature(certify).parameters["group_limit"].default == DEFAULT_ORDER_LIMIT

    def test_refuted_bad_congruence(self):
        cert = certify(2, 2, 7)  # 7 != 1 (mod 4)
        assert cert.conclusion == "refuted: p_congruence"

    def test_refuted_residue_condition(self):
        # 113 == 1 (mod 8) but 113 == 1 (mod 7) IS a square mod 7
        cert = certify(2, 1, 7, 113)
        assert cert.conclusion == "refuted: q_not_ellth_power_mod_p"

    def test_ell3_partial_path(self):
        cert = certify(3, 1, 7, 19)
        assert cert.certified
        assert cert.sha_cyc == AbGroupStructure([3])
        assert not cert.sigma0_exact
        assert cert.sigma0_labels == ["over-7-1", "over-7-2"]
        assert "not determined" in cert.sigma0_statement
        assert all(v.is_trivial for v in cert.sha_sigma0_minus.values())

    def test_no_sigma0_label_divides_ell(self):
        for args in ((2, 1, 3), (2, 1, 5), (3, 1, 7)):
            cert = certify(*args)
            assert cert.certified
            for label in cert.sigma0_labels:
                assert not str(label).startswith(f"over-{args[0]}")
                if isinstance(label, int):
                    assert label % args[0] != 0

    def test_json_all_decimal_strings(self):
        import json

        cert = certify(2, 1, 3)
        blob = cert.to_json_dict()
        text = json.dumps(blob)
        again = json.loads(text)
        assert again == blob

        def scan(node):
            assert not isinstance(node, int) or isinstance(node, bool), node
            if isinstance(node, dict):
                for v in node.values():
                    scan(v)
            elif isinstance(node, list):
                for v in node:
                    scan(v)

        scan(blob)

    def test_group_limit_guards_before_construction(self):
        # hypothesis checks pass, then the order guard fires (before any
        # Cayley table is built)
        with pytest.raises(ValueError, match="limit"):
            certify(2, 1, 3, 17, group_limit=2)

    def test_determinism(self):
        a = certify(2, 1, 11).to_json_dict()
        b = certify(2, 1, 11).to_json_dict()
        assert a == b


class TestFactorModuli:
    """Moduli are factored by `primes.factorize`, shared with the arithmetic layer."""

    def test_one_leaf_module(self):
        for name in ("is_prime", "factorize", "_brent_rho"):
            assert getattr(arithmetic, name) is getattr(primes, name)
        assert zmod_linalg.factorize is primes.factorize
        assert not hasattr(zmod_linalg, "_prime_powers")

    def test_kernel_mod_large_prime_modulus(self):
        p = 2 ** 61 - 1
        ker = kernel_mod(IntMatrix(1, 2, [1, 1]), p)
        assert ker.cols == 1
        x, y = ker.column(0)
        assert (x + y) % p == 0 and x % p != 0

    def test_cofactor_beyond_64_bits_raises_value_error(self):
        assert factorize(2 ** 70 * 3) == {2: 70, 3: 1}
        with pytest.raises(ValueError, match="exceeds 2\\*\\*64"):
            factorize((2 ** 61 - 1) * (2 ** 31 - 1) * 53)


class TestCheckedWitnesses:
    """The place-model checks of certify for (ell, n) != (2, 1) follow their witnesses."""

    PARAMS = [(2, 2, 5), (3, 1, 7), (2, 3, 17), (3, 1, 13), (5, 1, 11)]

    def test_corrupted_witness_fails_its_check(self):
        rng = random.Random(0x5EED)
        for ell, n, p in self.PARAMS:
            cert = certify(ell, n, p)
            q = cert.q
            checks = {c.name: c for c in cert.checks}
            mod = ell ** 8  # the default Hensel precision

            def full(w):
                return _full_over_p_holds(ell, n, p, q, w)

            def cyclic(w):
                return _cyclic_over_ell_holds(ell, q, 8, w)

            def disjoint(w):
                return _disjoint_from_ell_holds(ell, w)

            for name, holds in (("decomposition_full_over_p", full),
                                ("decomposition_cyclic_over_ell", cyclic),
                                ("sigma0_disjoint_from_ell", disjoint)):
                assert checks[name].passed and holds(checks[name].witness), (ell, n, p, name)

            w = checks["decomposition_full_over_p"].witness
            good = w["residue_degree_witness"]
            for bad in [1] + rng.sample([x for x in range(p) if x != good], min(5, p - 2)):
                assert not full(dict(w, residue_degree_witness=bad)), (ell, n, p, bad)
            assert not full(dict(w, places_over_p=w["places_over_p"] + rng.choice((-1, 1))))
            # a q that is an ell-th power mod p has the witness 1, recorded correctly
            power = pow(rng.randrange(2, p), ell, p) + p * rng.randrange(1, 9)
            assert pow(power, (p - 1) // ell, p) == 1
            assert not _full_over_p_holds(ell, n, p, power, dict(w, residue_degree_witness=1))

            w = checks["decomposition_cyclic_over_ell"].witness
            assert not cyclic(dict(w, root=None))
            verdicts = set()
            for _ in range(20):
                bad = (w["root"] + rng.randrange(1, mod)) % mod
                valid = pow(bad, ell, mod) == q % mod
                assert cyclic(dict(w, root=bad)) == valid, (ell, n, p, bad)
                verdicts.add(valid)
            assert False in verdicts

            w = checks["sigma0_disjoint_from_ell"].witness
            members = list(w["sigma0_known_members"])
            members.insert(rng.randrange(len(members) + 1), f"over-{ell}")
            assert not disjoint(dict(w, sigma0_known_members=members))

    @pytest.mark.parametrize("ell, n, p", [(2, 1, 3), (2, 2, 5), (3, 1, 7)])
    def test_one_hensel_lift_per_certificate(self, monkeypatch, ell, n, p):
        # the root of the local check is the witness of the place over ell too
        real, calls = arithmetic.ellth_root_in_zell, []

        def counted(q, ell, precision=8):
            calls.append((q, ell, precision))
            return real(q, ell, precision)

        monkeypatch.setattr(arithmetic, "ellth_root_in_zell", counted)
        cert = certify(ell, n, p)
        assert cert.certified and len(calls) == 1
        roots = [c.witness["root"] for c in cert.checks if "root" in c.witness]
        assert roots == [real(*calls[0])] * (1 if (ell, n) == (2, 1) else 2)

    @pytest.mark.parametrize("ell, n, p", [(2, 1, 3), (3, 1, 7)])
    def test_wrong_local_root_refutes_the_certificate(self, monkeypatch, ell, n, p):
        monkeypatch.setattr(arithmetic, "ellth_root_in_zell", lambda q, ell, precision=8: 2)
        cert = certify(ell, n, p)
        assert cert.conclusion == "refuted: q_ellth_power_locally_at_ell"

    def test_local_root_check_follows_its_witness(self):
        rng = random.Random(0x10CA1)
        for ell, n, p in [(2, 1, 3), (2, 1, 5)] + self.PARAMS:
            cert = certify(ell, n, p)
            q = cert.q
            check = next(c for c in cert.checks if c.name == "q_ellth_power_locally_at_ell")
            w = check.witness
            # the one precision, 8, is the one the root was lifted to
            assert w == {"root": ellth_root_in_zell(q, ell, 8), "precision_exponent": 8}
            assert check.statement.endswith(f"{ell}^8")
            assert check.passed and _ellth_power_locally_holds(ell, q, w)
            mod = ell ** 8
            assert not _ellth_power_locally_holds(ell, q, dict(w, root=None))
            verdicts = set()
            for _ in range(60):
                bad = (w["root"] + rng.randrange(1, mod)) % mod
                valid = pow(bad, ell, mod) == q % mod
                assert _ellth_power_locally_holds(ell, q, dict(w, root=bad)) == valid
                verdicts.add(valid)
            assert False in verdicts
            least = 3 if ell == 2 else 2
            assert not _ellth_power_locally_holds(ell, q, dict(w, precision_exponent=least - 1))


class TestPrimalityTestsPerNumber:
    # a number is tested for primality where it enters, not again in every
    # helper it passes through
    P = 2 ** 31 - 1

    @staticmethod
    def counted(monkeypatch):
        real, calls = primes.is_prime, []

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(primes, "is_prime", counting)
        monkeypatch.setattr(arithmetic, "is_prime", counting)
        return calls

    def test_biquadratic_model(self, monkeypatch):
        calls = self.counted(monkeypatch)
        assert arithmetic._biquadratic_model(self.P, 41)[2] == [41, self.P]
        assert calls.count(self.P) <= 2 and calls.count(41) <= 2, calls

    def test_certify_2_1(self, monkeypatch):
        calls = self.counted(monkeypatch)
        assert certify(2, 1, self.P).certified
        assert calls.count(self.P) <= 4, calls

    @pytest.mark.parametrize("ell, n", [(2, 2), (3, 1)])
    def test_certify_kummer(self, monkeypatch, ell, n):
        p = find_p(ell, n, start=2 ** 30)
        calls = self.counted(monkeypatch)
        assert certify(ell, n, p).certified
        assert calls.count(p) <= 2, calls
