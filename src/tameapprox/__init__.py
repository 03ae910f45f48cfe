"""Galois cohomology of finite modules over residue rings, and certified
counterexamples to tame approximation.

The library computes H^1(G, M) and the Tate-Shafarevich restriction kernels
Sha^1_cyc and Sha^1_Sigma for finite G-modules over Z/mZ, exactly (an
elimination over Z/p^e on Python ints), and uses them to construct
and machine-check abelian modules that fail weak approximation precisely on
a set of ramified places coprime to the module order.
"""

from .zmod_linalg import (
    AbGroupStructure,
    IntMatrix,
    NotInSpanError,
    kernel_mod,
    quotient_structure,
    smith_decomposition,
    snf,
)
from .finite_groups import (
    Group,
    Subgroup,
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
from .g_modules import (
    GModule,
    ModuleMap,
    augmentation_ideal,
    dual_module,
    group_ring,
    module_from_json,
    restrict,
    trivial_module,
)
from .cohomology import (
    H1Result,
    PlaceRecord,
    ShaResult,
    dimension_shift_check,
    h1,
    res_h1,
    sha_cyc,
    sha_sigma,
    tate_h0,
    verify_augmentation_lemma,
)
from .arithmetic import (
    Certificate,
    KummerPair,
    LocalSquareClass,
    SearchBoundError,
    certify,
    decomposition_subgroup,
    factorize,
    find_p,
    find_q,
    is_prime,
    kronecker,
    legendre,
    local_square,
    sigma0_biquadratic,
)

__version__ = "0.1.0"

__all__ = [
    "AbGroupStructure", "IntMatrix", "NotInSpanError",
    "kernel_mod", "quotient_structure", "smith_decomposition", "snf",
    "Group", "Subgroup", "all_subgroups", "builtin_group", "cyclic_group",
    "cyclic_subgroups", "direct_product", "from_permutations", "full_subgroup",
    "group_from_json", "product_of_prime_powers", "quaternion_group",
    "subgroup_generated", "trivial_subgroup",
    "GModule", "ModuleMap", "augmentation_ideal", "dual_module", "group_ring",
    "module_from_json", "restrict", "trivial_module",
    "H1Result", "PlaceRecord", "ShaResult", "dimension_shift_check", "h1",
    "res_h1", "sha_cyc", "sha_sigma", "tate_h0", "verify_augmentation_lemma",
    "Certificate", "KummerPair", "LocalSquareClass", "SearchBoundError",
    "certify", "decomposition_subgroup", "factorize", "find_p", "find_q",
    "is_prime", "kronecker", "legendre", "local_square", "sigma0_biquadratic",
]
