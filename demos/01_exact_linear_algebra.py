"""Exact linear algebra: Smith normal form, kernels, and quotient structure.

snf is the Smith normal form over Python's arbitrary-precision integers.
Every cohomology group in this package is a quotient ker A / im B,
presented by QuotientPresentation from one elimination of A over Z/p^e,
and kernel_mod and quotient_structure are cases of it.  kernel_mod is
ker A / im 0: one generator column per invariant factor of the kernel, of
exactly that order.  quotient_structure presents a quotient of spans as
ker A / im B, with A the annihilator of the ambient span.  This script
walks the three.
"""

from tameapprox import IntMatrix, kernel_mod, quotient_structure, snf

# ----------------------------------------------------------------------
# Smith normal form: U @ M @ V = D with unimodular U, V
# ----------------------------------------------------------------------
m = IntMatrix.from_rows([[2, 4], [6, 8]])
u, d, v = snf(m)
print("M =", list(m.row(0)), list(m.row(1)))
print("D =", list(d.row(0)), list(d.row(1)))
print("det U =", u.det(), " det V =", v.det())
assert u @ m @ v == d

# The diagonal is a divisibility chain d1 | d2 | ...; its nonunit entries
# are the invariant factors of the cokernel Z^2 / M Z^2.
print("invariant factors of coker(M):", [d[i, i] for i in range(2)])
print()

# ----------------------------------------------------------------------
# Kernels mod m: solve M x == 0 (mod m) exactly
# ----------------------------------------------------------------------
mat = IntMatrix.from_rows([[2]])
gens = kernel_mod(mat, 4)
print("solutions of 2x == 0 (mod 4) are generated by:",
      [list(gens.column(j)) for j in range(gens.cols)])

# An injective map has an empty generating set.
print("kernel of identity mod 5:", kernel_mod(IntMatrix.identity(3), 5).cols, "generators")
print()

# ----------------------------------------------------------------------
# Quotients of finite abelian groups, as invariant factors
# ----------------------------------------------------------------------
# (Z/4)^2 modulo the subgroup generated by (2, 0): sixteen elements over two.
amb = IntMatrix.identity(2)
sub = IntMatrix.from_rows([[2], [0]])
structure = quotient_structure(sub, amb, 4)
print("(Z/4)^2 / <(2,0)> =", structure)          # Z/2 x Z/4
print("order", structure.order, " exponent", structure.exponent)
