"""Sampled checks of the polynomial identities behind the paper's lemmas.

Each identity takes a random generator, draws one input from its own
hypothesis class, and returns ``None`` when the identity holds or a message
carrying the full input when it fails.  Identity ``IDENTITIES[index]``
draws from ``random.Random(seed * 1_000_003 + index)``, so a failure
replays from (identity, seed) alone.
"""

import random

from oracles import beta_gamma_norms_alt

from c4x4det.classifier import v2
from c4x4det.core import derive
from c4x4det.gdet import beta_gamma_norms, det4, det16_factored


def _rand_vec(rng, length, bound=50):
    return tuple(rng.randint(-bound, bound) for _ in range(length))


def rotation_antisymmetry(rng):
    x = _rand_vec(rng, 4)
    if det4(*x) != -det4(x[1], x[2], x[3], x[0]):
        return f"rotation antisymmetry fails for {x}"


def derived_congruences(rng):
    a = _rand_vec(rng, 16)
    spectra = derive(a)
    b, c, d = spectra
    alpha = spectra.alpha
    for i in range(4):
        if (b[i] - c[i]) % 2 or (b[i] - d[i] - d[i + 4]) % 2:
            return f"mod-2 congruence fails at {i} for {a}"
        if (b[i] + c[i] - 2 * d[i]) % 4:
            return f"sum congruence fails at {i} for {a}"
        if (b[i] - c[i] - 2 * d[i + 4]) % 4:
            return f"difference congruence fails at {i} for {a}"
        if alpha[i].re != d[i] or alpha[i].im != d[i + 4]:
            return f"alpha mismatch at {i} for {a}"


def half_swap_invariance(rng):
    d = _rand_vec(rng, 8)
    swapped = d[4:] + d[:4]
    if beta_gamma_norms(d) != beta_gamma_norms(swapped):
        return f"half-swap changes the norms for {d}"


def parity_alignment(rng):
    a = _rand_vec(rng, 16)
    b, c, d = derive(a)
    bn, gn = beta_gamma_norms(d)
    vals = (det16_factored(a), det4(*b), det4(*c), bn, gn)
    if len({v % 2 for v in vals}) != 1:
        return f"parities disagree for {a}: {[v % 2 for v in vals]}"


def norm_formula_agreement(rng):
    d = _rand_vec(rng, 8)
    if beta_gamma_norms(d) != beta_gamma_norms_alt(d):
        return f"norm formulas disagree for {d}"


def sum_square_difference(rng):
    d0, d1, d2, d3, d4, d5, d6, d7 = _rand_vec(rng, 8)
    lhs = (
        (d0 + d2) ** 2 + (d4 + d6) ** 2 + (d1 + d3) ** 2 + (d5 + d7) ** 2
    ) ** 2 - ((d0 - d2) ** 2 + (d4 - d6) ** 2 + (d1 - d3) ** 2 + (d5 - d7) ** 2) ** 2
    rhs = 8 * (
        d0**2 + d2**2 + d4**2 + d6**2 + d1**2 + d3**2 + d5**2 + d7**2
    ) * (d0 * d2 + d4 * d6 + d1 * d3 + d5 * d7)
    if lhs != rhs:
        return f"square-difference identity fails for {(d0,d1,d2,d3,d4,d5,d6,d7)}"


def cross_term_congruences(rng):
    a = _rand_vec(rng, 16)
    b, c, d = derive(a)
    d0, d1, d2, d3, d4, d5, d6, d7 = d
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    checks = (
        (2 * (d0 * d2 + d4 * d6 + d1 * d3 + d5 * d7),
         b0 * b2 + b1 * b3 + c0 * c2 + c1 * c3),
        (2 * (d0 * d7 + d2 * d5 + d4 * d3 + d6 * d1),
         b0 * b3 + b2 * b1 - c0 * c3 - c2 * c1),
        (2 * (d0 * d3 + d2 * d1 + d4 * d7 + d6 * d5),
         b0 * b3 + b2 * b1 + c0 * c3 + c2 * c1),
        (2 * (d0 * d5 + d2 * d7 + d4 * d1 + d6 * d3),
         b0 * b1 + b2 * b3 - c0 * c1 - c2 * c3),
        (2 * (d0 * d1 + d2 * d3 + d4 * d5 + d6 * d7),
         b0 * b1 + b2 * b3 + c0 * c1 + c2 * c3),
    )
    for idx, (lhs, rhs) in enumerate(checks, 1):
        if (lhs - rhs) % 4:
            return f"cross-term congruence ({idx}) fails for {a}"


def odd_pattern_mod16(rng):
    k, l, m, n = _rand_vec(rng, 4, 25)
    if (det4(2 * k + 1, 2 * l, 2 * m, 2 * n) - (8 * m + 1)) % 16:
        return f"one-odd pattern fails for {(k,l,m,n)}"
    if (det4(2 * k, 2 * l + 1, 2 * m + 1, 2 * n + 1) - (8 * (k + l + n) - 3)) % 16:
        return f"three-odd pattern fails for {(k,l,m,n)}"


def valuation_classes(rng):
    k, l, m, n = _rand_vec(rng, 4, 25)

    d_even = det4(2 * k, 2 * l, 2 * m, 2 * n)
    if (k + m - l - n) % 2:
        if d_even == 0 or v2(d_even) != 4:
            return f"all-even pattern not in 2^4*odd for {(k,l,m,n)}"
    elif d_even % 2**8:
        return f"all-even pattern not divisible by 2^8 for {(k,l,m,n)}"

    d_odd = det4(2 * k + 1, 2 * l + 1, 2 * m + 1, 2 * n + 1)
    if (k + m - l - n) % 2:
        if d_odd == 0 or v2(d_odd) != 4:
            return f"all-odd pattern not in 2^4*odd for {(k,l,m,n)}"
    elif ((k + m) * (l + n)) % 4 == 3:
        if d_odd == 0 or v2(d_odd) != 7:
            return f"all-odd pattern not in 2^7*odd for {(k,l,m,n)}"
    elif d_odd % 2**9:
        return f"all-odd pattern not divisible by 2^9 for {(k,l,m,n)}"

    d_alt = det4(2 * k, 2 * l + 1, 2 * m, 2 * n + 1)
    if (k - m) % 2 == 1 and (l - n) % 2 == 1:
        if d_alt == 0 or v2(d_alt) != 5:
            return f"alternating pattern not in 2^5*odd for {(k,l,m,n)}"
    elif (k - m) % 2 == 0 and ((2 * k + 2 * l + 1) * (2 * m + 2 * n + 1)) % 8 in (3, 5):
        if d_alt == 0 or v2(d_alt) != 6:
            return f"alternating pattern not in 2^6*odd for {(k,l,m,n)}"
    elif d_alt % 2**7:
        return f"alternating pattern not divisible by 2^7 for {(k,l,m,n)}"

    d_pair = det4(2 * k, 2 * l, 2 * m + 1, 2 * n + 1)
    if ((2 * k + 2 * m + 1) * (2 * l + 2 * n + 1)) % 8 in (3, 5):
        if d_pair == 0 or v2(d_pair) != 4:
            return f"paired pattern not in 2^4*odd for {(k,l,m,n)}"
    elif d_pair % 2**5:
        return f"paired pattern not divisible by 2^5 for {(k,l,m,n)}"


def _sample_odd_sum_split(rng):
    # coefficient vectors whose b vector has odd b0+b2+b1+b3
    while True:
        a = _rand_vec(rng, 16)
        b, c, d = derive(a)
        if (b[0] + b[2] + b[1] + b[3]) % 2:
            return a, b, c, d


def odd_product_mod16(rng):
    a, b, c, d = _sample_odd_sum_split(rng)
    s = b[0] * b[2] + b[1] * b[3] + c[0] * c[2] + c[1] * c[3]
    if (det4(*b) * det4(*c) - (1 - 4 * s)) % 16:
        return f"odd product congruence fails for {a}"


def norm_difference_mod16(rng):
    a, b, c, d = _sample_odd_sum_split(rng)
    s = b[0] * b[2] + b[1] * b[3] + c[0] * c[2] + c[1] * c[3]
    bn, gn = beta_gamma_norms(d)
    if (bn - gn - 4 * s) % 16:
        return f"norm difference congruence fails for {a}"


def constrained_norm_product(rng):
    t, u, v, w = _rand_vec(rng, 4, 20)
    e = rng.randint(0, 1)
    d = (
        2 * t - 2 * v,
        2 * t + 2 * w + 1,
        2 * t + 2 * v + 2 * e,
        2 * t - 2 * w,
        2 * u + 2 * w + 1,
        2 * u + 2 * v + 1,
        2 * u - 2 * w,
        2 * u - 2 * v,
    )
    bn, gn = beta_gamma_norms(d)
    expected = ((8 * t + 2 * e + 1) ** 2 + (8 * u + 2) ** 2) * (
        (8 * v + 2 * e + 1) ** 2 + (8 * w + 2) ** 2
    )
    if bn * gn != expected:
        return f"constrained norm product fails for {(t,u,v,w,e)}"


IDENTITIES = (
    rotation_antisymmetry,
    derived_congruences,
    half_swap_invariance,
    parity_alignment,
    norm_formula_agreement,
    sum_square_difference,
    cross_term_congruences,
    odd_pattern_mod16,
    valuation_classes,
    odd_product_mod16,
    norm_difference_mod16,
    constrained_norm_product,
)


def failures(index: int, samples: int, seed: int) -> list:
    """Failure messages of ``IDENTITIES[index]`` over ``samples`` seeded draws."""
    rng = random.Random(seed * 1_000_003 + index)
    identity = IDENTITIES[index]
    return [msg for msg in (identity(rng) for _ in range(samples)) if msg is not None]
