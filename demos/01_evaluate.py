"""Three independent routes to one group determinant.

The coefficient vector below assigns m+1 = 2 to the identity element and
m = 1 everywhere else; its determinant is 16m + 1 = 17.  The direct route
factors the coefficient sum 17 out of the literal 16x16 matrix and
eliminates the 15x15 matrix of row differences; the factored route multiplies the
closed-form pieces; the spectral route multiplies the four Gaussian
character-block determinants.
"""

from c4x4det import derive, det16_direct, det16_factored, det16_spectral
from c4x4det.gdet import factored_pieces, group_matrix, spectral_factors

a = (2,) + (1,) * 15

print("coefficients:", a)
print()
print("direct (fraction-free elimination):", det16_direct(a))
print("factored (closed-form product):    ", det16_factored(a))
print("spectral (character blocks):       ", det16_spectral(a))
print()

b, c, d = derive(a)
p = factored_pieces(a)
print("derived spectra:")
print("  b =", b, " c =", c)
print("  d =", d)
print("  alpha =", tuple((d[i], d[i + 4]) for i in range(4)))
print()
print("factored pieces:")
print(f"  det4(b) = {p[0] * p[1] * p[2]}")
print(f"  det4(c) = {p[3] * p[4] * p[5]}")
print(f"  beta_norm = {p[6] * p[7]}, gamma_norm = {p[8] * p[9]}")
print()
print("spectral factors:", spectral_factors(a))
print()

row = group_matrix(a)[0]
print("first matrix row (idx g=0):", row)
