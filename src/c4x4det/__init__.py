"""Exact integer group determinants on the rank-two order-16 bicyclic group.

The package evaluates the 16-coefficient group determinant three independent
ways, decides exactly which integers are attainable as such a determinant
(with a machine-checkable certificate either way), and synthesizes explicit
coefficient vectors realizing every attainable value.
"""

import importlib

from .classifier import (
    Even15,
    Even16,
    NotInS,
    OddA,
    OddOne,
    Reason,
    SClassification,
    a_decompose,
    classify,
)
from .core import CoeffVec16, DerivedSpectra, GaussInt, derive
from .errors import (
    EnvelopeExceededError,
    InternalMismatchError,
    NotAttainableError,
    PreconditionError,
)
from .gdet import (
    BetaGammaNorms,
    beta_gamma_norms,
    det2,
    det4,
    det4_gauss,
    det16_direct,
    det16_factored,
    det16_spectral,
)
from .numtheory import (
    ENVELOPE,
    Factorization,
    TwoSquaresRep,
    factorize,
    is_in_P,
    is_prime,
    signed_divisors_1mod8,
    two_squares_2p,
    two_squares_prime_5mod8,
)
from .witness import WitnessCase, WitnessPlan, emit, plan, witness

__version__ = "0.1.0"

# The scan harness (and its names below) is loaded on first use (PEP 562), so
# that ``import c4x4det`` and the one-shot CLI commands do not pay for it.
_VERIFICATION_NAMES = frozenset(
    {
        "ScanReport",
        "scan_exhaustive",
        "scan_random",
        "window_roundtrip",
    }
)


def __getattr__(name):
    if name == "verification" or name in _VERIFICATION_NAMES:
        verification = importlib.import_module(".verification", __name__)
        return verification if name == "verification" else getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_VERIFICATION_NAMES, "verification"})


__all__ = [
    "BetaGammaNorms",
    "CoeffVec16",
    "DerivedSpectra",
    "ENVELOPE",
    "EnvelopeExceededError",
    "Even15",
    "Even16",
    "Factorization",
    "GaussInt",
    "InternalMismatchError",
    "NotAttainableError",
    "NotInS",
    "OddA",
    "OddOne",
    "PreconditionError",
    "Reason",
    "SClassification",
    "ScanReport",
    "TwoSquaresRep",
    "WitnessCase",
    "WitnessPlan",
    "a_decompose",
    "beta_gamma_norms",
    "classify",
    "derive",
    "det2",
    "det4",
    "det4_gauss",
    "det16_direct",
    "det16_factored",
    "det16_spectral",
    "emit",
    "factorize",
    "is_in_P",
    "is_prime",
    "plan",
    "scan_exhaustive",
    "scan_random",
    "signed_divisors_1mod8",
    "two_squares_2p",
    "two_squares_prime_5mod8",
    "window_roundtrip",
    "witness",
]
