"""Exact integer group determinants on the rank-two order-16 bicyclic group.

The package evaluates the 16-coefficient group determinant three independent
ways, decides exactly which integers are attainable as such a determinant
(with a machine-checkable certificate either way), and synthesizes explicit
coefficient vectors realizing every attainable value.
"""

import importlib
import sys
import types

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
from .core import CoeffVec16, DerivedSpectra, derive
from .errors import (
    EnvelopeExceededError,
    FactorizationError,
    InternalMismatchError,
    NotAttainableError,
    PreconditionError,
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

__version__ = "0.1.0"

# The determinant routes, the witness synthesizer and the scan harness are
# loaded on first use (PEP 562): each name below maps to the submodule that
# defines it, so that ``import c4x4det`` compiles only ``core``, ``errors``,
# ``numtheory`` and ``classifier``, and the ``classify`` command adds only
# ``cli``.  The submodules ``gdet`` and ``verification`` define no attribute
# of their own name, so their entries return the module itself; ``witness``
# is always the function (see ``_Package``).
_LAZY = {
    **dict.fromkeys(
        ("gdet", "BetaGammaNorms", "beta_gamma_norms", "det4", "det16_direct",
         "det16_factored", "det16_spectral"),
        "gdet",
    ),
    **dict.fromkeys(("witness", "WitnessCase", "WitnessPlan", "emit", "plan"), "witness"),
    **dict.fromkeys(
        ("verification", "ScanReport", "scan_exhaustive", "scan_random", "window_roundtrip"),
        "verification",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return getattr(module, name, module)


def __dir__():
    return sorted({*globals(), *_LAZY})


class _Package(types.ModuleType):
    """The package module, keeping ``c4x4det.witness`` the function in every import order.

    Importing the submodule ``c4x4det.witness`` binds it on the package under
    the function's name; this binds the submodule's function instead.
    """

    def __setattr__(self, name, value):
        if name == "witness" and isinstance(value, types.ModuleType):
            value = value.witness
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


__all__ = [
    "BetaGammaNorms",
    "CoeffVec16",
    "DerivedSpectra",
    "ENVELOPE",
    "EnvelopeExceededError",
    "Even15",
    "Even16",
    "Factorization",
    "FactorizationError",
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
    "det4",
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
