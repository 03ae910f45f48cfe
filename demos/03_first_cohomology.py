"""First cohomology, Tate H^0, and the n/e law for augmentation ideals.

For any finite group G of order n and exponent e, the augmentation ideal I
of (Z/n)[G] satisfies:

    H^1(H, I|_H) = Z/|H|        for every subgroup H   (dimension shift)
    Sha^1_cyc(G, I) = Z/(n/e)   (kernel of restriction to cyclic subgroups)

The second line is what makes the counterexample machinery tick: whenever
G is non-cyclic abelian (so n/e > 1), classes survive that die on every
cyclic subgroup.
"""

from tameapprox import (
    augmentation_ideal,
    builtin_group,
    cyclic_group,
    dimension_shift_check,
    h1,
    sha_cyc,
    tate_h0,
    trivial_module,
    verify_augmentation_lemma,
)

# ----------------------------------------------------------------------
# H^1 with explicit cocycles
# ----------------------------------------------------------------------
klein = builtin_group("klein4")
ideal, _, _ = augmentation_ideal(klein, 4)
result = h1(klein, ideal)
print("H^1(G, I) =", result.structure)
print("a generating cocycle (values in the {g-1} basis):")
cocycle = result.cocycle(result.presentation.generator_columns[0])
for g in range(klein.order):
    print(f"  z({klein.names[g]}) = {list(cocycle[g])}")
print()

# ----------------------------------------------------------------------
# Tate H^0 drives the dimension shift
# ----------------------------------------------------------------------
z2 = cyclic_group(2)
print("H^0_hat(Z/2, Z/4 trivial) =", tate_h0(z2, trivial_module(z2, 4)))
print("dimension shift across subgroups of the Klein group:")
for rep in dimension_shift_check(klein):
    print(f"  |H| = {rep.subgroup.order}: H^1(H, I|_H) = {rep.ideal_h1}"
          f" (ring: {rep.ring_h1})")
print()

# ----------------------------------------------------------------------
# The n/e law across a battery of groups
# ----------------------------------------------------------------------
for name in ("klein4", "z4", "z2xz4", "z3xz3", "s3", "z6", "q8", "z2xz2xz2"):
    group = builtin_group(name)
    rep = verify_augmentation_lemma(group)
    print(f"{name:10s} n = {rep.order:2d}, e = {rep.exponent:2d}:"
          f" Sha^1_cyc(G, I) = {rep.computed}  (expected {rep.expected})")
    assert rep.passed

# Cyclic groups are the degenerate case: every class dies already.
print("\ncyclic sanity check:", sha_cyc(cyclic_group(4),
                                        augmentation_ideal(cyclic_group(4), 4)[0]))
