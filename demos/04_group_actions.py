"""Group actions on abelian groups: coinvariants, invariants, and a
counterexample.

An action is a diagram on the one-object category of the group, built by
``gmodule``.  Coinvariants are its colimit, invariants its limit.  A mono
of actions need not induce a mono on coinvariants; the classic instance
is worked out in full below.
"""

from abcat.abdiag import coinvariants, gmodule, induced_map_on_colimits, invariants
from abcat.abgrp import (describe_form, free_abelian, hom, is_mono, is_zero_hom,
                         kernel)

Z2 = [[0, 1], [1, 0]]

print("== negation on Z ==")
z = free_abelian(1)
negation = gmodule(Z2, z, {1: hom(z, z, [[-1]])})
co, _ = coinvariants(negation)
inv, _ = invariants(negation)
print("coinvariants:", describe_form(co.canonical_form))
print("invariants:  ", describe_form(inv.canonical_form))

print()
print("== swap on Z x Z ==")
z2 = free_abelian(2)
swap = gmodule(Z2, z2, {1: hom(z2, z2, [[0, 1], [1, 0]])})
co2, _ = coinvariants(swap)
inv2, _ = invariants(swap)
print("coinvariants:", describe_form(co2.canonical_form))
print("invariants:  ", describe_form(inv2.canonical_form), "(the diagonal)")

print()
print("== the equivariant mono that dies on coinvariants ==")
component = hom(z, z2, [[-1], [1]])
print("1 |-> (-1, 1) is a monomorphism:", is_mono(component))
induced, col_src, col_tgt = induced_map_on_colimits(negation, swap, [component])
print("induced map", describe_form(col_src.carrier.canonical_form), "->",
      describe_form(col_tgt.carrier.canonical_form))
print("it is the zero map:", is_zero_hom(induced))
ker, _ = kernel(induced)
print("its kernel is", describe_form(ker.canonical_form),
      "so it is not a monomorphism:", not is_mono(induced))
print()
print("conclusion: taking coinvariants (a colimit over a one-object")
print("category that is not filtered) does not preserve monomorphisms.")
