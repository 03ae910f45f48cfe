"""The integer rule of the Python API, entry point by entry point.

An argument that stands for an integer must be an `int`, and a bool is not
one: `primes._int` refuses anything else with "<what> is <value!r>, not an
int", and nothing is truncated or parsed.  Each entry point below is given
2.5, "7" and True in each of its integer arguments, and once an `int`,
whose result is what it was before the rule moved into one place.
"""

import re

import pytest

from tameapprox.arithmetic import (
    KummerPair,
    certify,
    ellth_root_in_zell,
    find_p,
    find_q,
    is_squarefree,
    kronecker,
    legendre,
    local_square,
)
from tameapprox.finite_groups import (
    Group,
    Subgroup,
    cyclic_group,
    from_permutations,
    product_of_prime_powers,
    subgroup_generated,
)
from tameapprox.g_modules import (
    GModule,
    _ideal_module,
    augmentation_ideal,
    dual_module,
    group_ring,
    trivial_module,
)
from tameapprox.primes import factorize, is_prime
from tameapprox.zmod_linalg import (
    AbGroupStructure,
    IntMatrix,
    QuotientPresentation,
    kernel_mod,
    quotient_structure,
)

Z2, Z4 = cyclic_group(2), cyclic_group(4)
TWO = IntMatrix(1, 1, [2])  # x -> 2x, whose kernel mod 4 is Z/2
ONE = IntMatrix(1, 1, [1])
RANK_ONE_SIGN = ((((0, 1),),), (((0, 3),),))  # Z/2 acting on Z/4 by -1

# (entry point, what, call with v in the argument that `what` names)
SLOTS = [
    ("is_prime", "x", lambda v: is_prime(v)),
    ("factorize", "n", lambda v: factorize(v)),
    ("IntMatrix", "matrix rows", lambda v: IntMatrix(v, 1, [0])),
    ("IntMatrix", "matrix cols", lambda v: IntMatrix(1, v, [0])),
    ("IntMatrix", "matrix entry 1", lambda v: IntMatrix(1, 2, [0, v])),
    ("AbGroupStructure", "invariant factor", lambda v: AbGroupStructure([2, v])),
    ("QuotientPresentation", "modulus", lambda v: QuotientPresentation([[2]], [()], v)),
    ("kernel_mod", "modulus", lambda v: kernel_mod(TWO, v)),
    ("quotient_structure", "modulus", lambda v: quotient_structure(TWO, ONE, v)),
    ("Group", "an entry of table row 1", lambda v: Group([[0, 1], [1, v]])),
    ("from_permutations", "an entry of permutation 0", lambda v: from_permutations([(v, 0)])),
    ("cyclic_group", "cyclic group order", lambda v: cyclic_group(v)),
    ("product_of_prime_powers", "ell", lambda v: product_of_prime_powers(v, 1)),
    ("product_of_prime_powers", "n", lambda v: product_of_prime_powers(2, v)),
    ("subgroup_generated", "subgroup generator", lambda v: subgroup_generated(Z4, [v])),
    ("Subgroup", "subgroup element", lambda v: Subgroup(Z4, [0, v])),
    ("GModule", "modulus", lambda v: GModule(Z2, v, 1, [[[1]], [[1]]])),
    ("GModule", "rank", lambda v: GModule(Z2, 4, v, [[[1]], [[1]]])),
    ("GModule", "action matrix entry", lambda v: GModule(Z2, 4, 1, [[[1]], [[v]]])),
    ("trivial_module", "modulus", lambda v: trivial_module(Z4, v)),
    ("trivial_module", "rank", lambda v: trivial_module(Z4, 4, v)),
    ("group_ring", "modulus", lambda v: group_ring(Z4, v)),
    ("_ideal_module", "modulus", lambda v: _ideal_module(Z4, v)),
    ("augmentation_ideal", "modulus", lambda v: augmentation_ideal(Z4, v)),
    ("dual_module", "twist(1)", lambda v: dual_module(trivial_module(Z2, 4), {0: 1, 1: v})),
    ("is_squarefree", "n", lambda v: is_squarefree(v)),
    ("legendre", "a", lambda v: legendre(v, 7)),
    ("legendre", "x", lambda v: legendre(2, v)),  # p goes through is_prime
    ("kronecker", "a", lambda v: kronecker(v, 15)),
    ("kronecker", "n", lambda v: kronecker(2, v)),
    ("find_p", "ell", lambda v: find_p(v, 1)),
    ("find_p", "n", lambda v: find_p(2, v)),
    ("find_p", "start", lambda v: find_p(2, 1, start=v)),
    ("find_q", "ell", lambda v: find_q(v, 5)),
    ("find_q", "p", lambda v: find_q(2, v)),
    ("local_square", "d", lambda v: local_square(v, 3)),
    ("KummerPair", "a", lambda v: KummerPair(v, 17)),
    ("KummerPair", "b", lambda v: KummerPair(3, v)),
    ("ellth_root_in_zell", "q", lambda v: ellth_root_in_zell(v, 2)),
    ("ellth_root_in_zell", "ell", lambda v: ellth_root_in_zell(17, v)),
    ("ellth_root_in_zell", "Hensel precision", lambda v: ellth_root_in_zell(17, 2, v)),
    ("certify", "ell", lambda v: certify(v, 1, 3)),
    ("certify", "n", lambda v: certify(2, v, 3)),
    ("certify", "p", lambda v: certify(2, 1, v)),
    ("certify", "q", lambda v: certify(2, 1, 3, v)),
]


@pytest.mark.parametrize("value", [2.5, "7", True], ids=repr)
@pytest.mark.parametrize("entry, what, call", SLOTS, ids=[f"{e}-{w}" for e, w, _ in SLOTS])
def test_a_value_that_is_not_an_int_is_refused(entry, what, call, value):
    message = f"^{re.escape(what)} is {re.escape(repr(value))}, not an int$"
    with pytest.raises(ValueError, match=message):
        call(value)


# one int call per entry point, with the result it has always had
VALID = {
    "is_prime": lambda: is_prime(7) is True,
    "factorize": lambda: factorize(12) == {2: 2, 3: 1},
    "IntMatrix": lambda: IntMatrix(1, 2, [0, 7]).entries == (0, 7),
    "AbGroupStructure": lambda: AbGroupStructure([2, 4]).order == 8,
    "QuotientPresentation": lambda: QuotientPresentation([[2]], [()], 4).structure == ((2,),),
    "kernel_mod": lambda: kernel_mod(TWO, 4) == IntMatrix(1, 1, [2]),
    "quotient_structure": lambda: quotient_structure(TWO, ONE, 4) == ((2,),),
    "Group": lambda: Group([[0, 1], [1, 0]]).order == 2,
    "from_permutations": lambda: from_permutations([(1, 0)]).names == ("e", "(0 1)"),
    "cyclic_group": lambda: cyclic_group(3).order == 3,
    "product_of_prime_powers": lambda: product_of_prime_powers(2, 1).order == 4,
    "subgroup_generated": lambda: subgroup_generated(Z4, [2]).elements == (0, 2),
    "Subgroup": lambda: Subgroup(Z4, [0, 2]).elements == (0, 2),
    "GModule": lambda: GModule(Z2, 4, 1, [[[1]], [[3]]]).action_rows == RANK_ONE_SIGN,
    "trivial_module": lambda: trivial_module(Z4, 4, 2).size == 16,
    "group_ring": lambda: group_ring(Z4, 4).rank == 4,
    "_ideal_module": lambda: _ideal_module(Z4, 4).rank == 3,
    "augmentation_ideal": lambda: augmentation_ideal(Z4, 4)[2].matrix.entries == (1, 1, 1, 1),
    "dual_module": lambda: (dual_module(trivial_module(Z2, 4), {0: 1, 1: 3}).action_rows
                            == RANK_ONE_SIGN),
    "is_squarefree": lambda: is_squarefree(30) and not is_squarefree(12),
    "legendre": lambda: legendre(2, 7) == 1,
    "kronecker": lambda: kronecker(2, 15) == 1,
    "find_p": lambda: find_p(2, 1) == 3,
    "find_q": lambda: find_q(2, 5) == 17,
    "local_square": lambda: local_square(7, 3).is_square is True,
    "KummerPair": lambda: KummerPair(3, 17) == (3, 17),
    "ellth_root_in_zell": lambda: ellth_root_in_zell(17, 2, 9) == 233,
    "certify": lambda: _witness(certify(2, 1, 3, 17),
                                "q_ellth_power_locally_at_ell") == {"root": 105,
                                                                    "precision_exponent": 8},
}


def _witness(cert, name):
    return next(c.witness for c in cert.checks if c.name == name)


def test_every_entry_point_has_a_valid_case():
    assert {entry for entry, _, _ in SLOTS} == set(VALID)


@pytest.mark.parametrize("entry", sorted(VALID))
def test_an_int_gives_the_result_it_always_gave(entry):
    assert VALID[entry]()


# each was once truncated by int(): is_prime(7.9) was True, kernel_mod
# solved mod 4, and find_q searched for a companion of p = 17
@pytest.mark.parametrize("call, message", [
    (lambda: is_prime(7.9), r"^x is 7\.9, not an int$"),
    (lambda: kernel_mod(TWO, 4.7), r"^modulus is 4\.7, not an int$"),
    (lambda: find_q(2, 17.9), r"^p is 17\.9, not an int$"),
], ids=["is_prime(7.9)", "kernel_mod(M, 4.7)", "find_q(2, 17.9)"])
def test_the_truncations_once_seen_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
