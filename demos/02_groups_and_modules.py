"""Finite groups as Cayley tables, and the modules the theory lives on.

The central module is the augmentation ideal I of (Z/m)[G]: the kernel of
the map sending every group element to 1, with basis {g - 1 : g != e}.
"""

from tameapprox import (
    augmentation_ideal,
    builtin_group,
    cyclic_subgroups,
    dual_module,
    from_permutations,
    group_ring,
    restrict,
)

# ----------------------------------------------------------------------
# Groups: builtins by name, or generated by permutations
# ----------------------------------------------------------------------
klein = builtin_group("klein4")
print("Klein group:", klein.names, "exponent", klein.exponent())

s3 = from_permutations([(1, 2, 0), (1, 0, 2)])
print("S3 from two permutations: order", s3.order, "elements", s3.names)
print("cyclic subgroup orders in S3:",
      [h.order for h in cyclic_subgroups(s3)])
print()

# ----------------------------------------------------------------------
# The group ring and its augmentation ideal
# ----------------------------------------------------------------------
ring = group_ring(klein, 4)
print("(Z/4)[G] has rank", ring.rank, "and every action is a permutation matrix")
# stored as sparse rows: row i lists the (column, residue) pairs of its nonzeros
print("rows of the action of element 1:", ring.action_rows[1])

ideal, incl, aug = augmentation_ideal(klein, 4)
print("augmentation ideal: rank", ideal.rank, "order", ideal.size, "= 2^6")
# the inclusion sends the basis vector (g-1) to g minus the identity
print("incl matrix columns:", [list(incl.matrix.column(j)) for j in range(3)])
print("aug of a group element:", aug.apply((0, 1, 0, 0)),
      " aug of the sum of all four:", aug.apply((1, 1, 1, 1)), "(4 == 0 mod 4)")
print()

# ----------------------------------------------------------------------
# Restriction to a subgroup, and the twisted dual
# ----------------------------------------------------------------------
order2 = [h for h in cyclic_subgroups(klein) if h.order == 2][0]
res = restrict(ring, order2)
print("ring restricted to an order-2 subgroup acts by:", res.act_matrix(1))

plain_dual = dual_module(ideal)
print("dual action(g) is transpose of action(g^-1):",
      plain_dual.act_matrix(1) == tuple(zip(*ideal.act_matrix(klein.inverse(1)))))

# a quadratic character twist: the nontrivial map Z/2 x Z/2 -> {1, 3} mod 4
chi = {0: 1, 1: 3, 2: 1, 3: 3}
twisted = dual_module(ideal, chi)
print("character-twisted dual still a genuine module:", twisted.label)
