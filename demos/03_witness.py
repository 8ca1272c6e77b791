"""Witness synthesis: from a value to a coefficient vector realizing it.

Every certificate family has an explicit construction; the library picks
the construction, fills in its parameters (solving the constrained
two-square equations where needed), and re-checks the emitted tuple with
the direct determinant before handing it back.
"""

from c4x4det import classify, witness
from c4x4det.witness import emit, plan

for n in (17, -375, 1625, 163840, 2**16 * 7, 0):
    vec, cert = witness(n)
    print(f"{n:>8}  {cert}")
    print(f"          witness {tuple(vec)}")

print()
print("under the hood: certificate -> plan -> table")
cert = classify(-375)
p = plan(cert)
print("certificate:", cert)
print("plan case:  ", p.case.value)
print("parameters: ", dict(p.params))
print("emitted:    ", tuple(emit(p)))
