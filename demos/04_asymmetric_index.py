"""The exact asymmetric index: a breadth-first search over isomorphism
classes with orbit pruning, witnesses, modes, and the distinguished
failure cases."""

from asymindex import (BudgetExceededError, NoAsymmetrizationError,
                       asymmetric_index, count_nonisomorphic_asymmetrizations)
from asymindex.families import complete, cycle, path, star, wheel

print("exact values with a first witness each:")
for label, g in [("P_9", path(9)), ("C_9", cycle(9)), ("W_9", wheel(9)),
                 ("K_1,5", star(6)), ("K_6", complete(6)), ("K_7", complete(7))]:
    res = asymmetric_index(g)
    print(f"  ai({label}) = {res.value}   witness {res.witnesses[0]}   "
          f"({res.stats.tested} graphs tested, "
          f"{res.stats.dedup_hits} repeated classes)")

# Graphs on 2..5 vertices cannot be asymmetrized at all.
try:
    asymmetric_index(cycle(4))
except NoAsymmetrizationError as exc:
    print()
    print("C_4:", exc)

# Pure removals never fix a cycle: the search exhausts every subset.
try:
    asymmetric_index(cycle(7), mode="remove-only", max_k=7)
except BudgetExceededError as exc:
    print("C_7 remove-only:", exc)

# Counting distinct outcomes rather than distinct edits: the number of
# isomorphism classes reachable by adding two chords to a cycle.
print()
print("asymmetric two-chord classes on C_n:")
for n in range(6, 11):
    print(f"  n={n}: {count_nonisomorphic_asymmetrizations(cycle(n), 0, 2)}")
