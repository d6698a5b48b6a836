"""The claim ledger: run a few catalog entries and show how refutations
carry evidence instead of being hidden."""

from collections import Counter

from asymindex import verify, DEFAULT_ALLOWLIST

print("cycles need exactly two edits (value, witness, and removal rows):")
for row in verify("Thm2.2", n=(6, 8)):
    print(f"  {row.claim_id:22s} {str(row.params):12s} {row.status}")

print()
print("the printed complete-graph lower bound is internally inconsistent:")
row = verify("Thm2.6-printed-lower")[0]
print(f"  printed lower bound {row.computed['claimed']} at n=8, but the upper "
      f"bound n - 2 allows at most {row.computed['computed']}")
print(f"  -> {row.status} (allowlisted as {row.allowlist_key})")

print()
print("the torus claim ai = 3: the search finds two flips enough")
for row in verify("Thm2.10"):
    print(f"  r={row.params['r']} s={row.params['s']}: ai = {row.evidence['value']} "
          f"-> {row.status}")
    print("    first witness:", row.evidence["witnesses"][0])

print()
print("whole-suite status counts (takes a little while):")
from asymindex import verify_suite
rows = verify_suite()
print(" ", dict(Counter(r.status for r in rows)))
refuted = [r for r in rows if r.status == "refuted"]
print(f"  every refutation keyed into the allowlist: "
      f"{all(r.allowlist_key in DEFAULT_ALLOWLIST for r in refuted)}")
