"""Three independent routes to one group determinant.

The coefficient vector below assigns m+1 = 2 to the identity element and
m = 1 everywhere else; its determinant is 16m + 1 = 17.  The direct route
eliminates the literal 16x16 matrix; the factored route multiplies the
closed-form pieces; the spectral route multiplies the four Gaussian
character-block determinants.
"""

from c4x4det import derive, det16_direct, det16_factored, det16_spectral
from c4x4det.gdet import beta_gamma_norms, det4, group_matrix, spectral_factors

a = (2,) + (1,) * 15

print("coefficients:", a)
print()
print("direct (fraction-free elimination):", det16_direct(a))
print("factored (closed-form product):    ", det16_factored(a))
print("spectral (character blocks):       ", det16_spectral(a))
print()

b, c, d = derive(a)
norms = beta_gamma_norms(d)
print("derived spectra:")
print("  b =", b, " c =", c)
print("  d =", d)
print("  alpha =", tuple((d[i], d[i + 4]) for i in range(4)))
print()
print("factored pieces:")
print(f"  det4(b) = {det4(*b)}")
print(f"  det4(c) = {det4(*c)}")
print(f"  beta_norm = {norms.beta_norm}, gamma_norm = {norms.gamma_norm}")
print()
print("spectral factors:", spectral_factors(a))
print()

row = group_matrix(a)[0]
print("first matrix row (idx g=0):", row)
