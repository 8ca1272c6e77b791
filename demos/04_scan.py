"""Membership scans and a witness round-trip, at demo scale.

A scan computes the determinant of many coefficient vectors and insists
the classifier accepts every value (no scanned determinant may ever be
rejected).  The round-trip goes the other way: every accepted value in a
window gets a witness, re-checked by the direct determinant.
"""

from c4x4det import scan_exhaustive, scan_random, window_roundtrip

print("exhaustive over {0,1}^16:")
report = scan_exhaustive((0, 1))
print(" ", report.summary())
print("  sample of values seen:", sorted(report.seen_values)[:8], "...")
print()

print("random, 5000 tuples with entries in [-9, 9] (also cross-checks the")
print("three determinant routes on every sample):")
report = scan_random(5000, 9, seed=42)
print(" ", report.summary())
print()

print("witness round-trip over the odd window |n| <= 1601:")
report = window_roundtrip(range(-1601, 1602, 2))
print(" ", report.summary())
