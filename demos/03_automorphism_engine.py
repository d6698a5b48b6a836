"""The automorphism engine: asymmetry tests, exact group orders, vertex
orbits, canonical forms, and transposable pairs."""

import random

from asymindex import (are_isomorphic, automorphism_group, canonical_form,
                       cycles_str, find_nontrivial_automorphism,
                       transposable_pairs)
from asymindex.families import complete, cycle, path, star, wheel

print("group orders (exact, arbitrary precision):")
for label, g in [("C_6", cycle(6)), ("W_7", wheel(7)), ("K_5", complete(5)),
                 ("K_1,7", star(8)), ("K_12", complete(12))]:
    rep = automorphism_group(g)
    print(f"  {label:6s} order {rep.order}  orbits {rep.orbits}")

# The smallest asymmetric graphs have six vertices; here is one.
fig = cycle(6).add_edge(2, 4).add_edge(2, 5)
print()
print("hexagon + two chords:", "asymmetric" if
      find_nontrivial_automorphism(fig) is None else "symmetric")

# Witness extraction: for a symmetric graph the engine returns a
# concrete non-identity automorphism.
sigma = find_nontrivial_automorphism(wheel(9))
print("a wheel automorphism:", cycles_str(sigma))

# Canonical forms decide isomorphism; C_5 is self-complementary.
print()
print("C_5 isomorphic to its complement:",
      are_isomorphic(cycle(5), cycle(5).complement()))
rng = random.Random(1)
perm = list(range(10))
rng.shuffle(perm)
print("canonical form survives relabeling:",
      canonical_form(path(10)) == canonical_form(path(10).relabel(tuple(perm))))

# Transposable pairs: the vertex pairs some automorphism swaps.  The
# paper's bound from a pairwise-transposable set fails on C_8; the claim
# ledger records that refutation (asymindex verify Lem1.4).
print()
print("transposable pairs of P_4:", sorted(transposable_pairs(path(4))))
print("C_8 pairs that some automorphism swaps:",
      len(transposable_pairs(cycle(8))), "of 28")
