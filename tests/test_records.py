"""Value semantics of the package's immutable records.

The certificates, ``Factorization``, ``WitnessPlan`` and ``ScanReport``
share one base class; these tests pin what callers rely on:
equality within a class only, hash of the field tuple, the exact repr,
immutability, pickle and copy round trips, and keyword construction.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from c4x4det import (
    Even15,
    Even16,
    Factorization,
    NotInS,
    OddA,
    OddOne,
    Reason,
    WitnessPlan,
    plan,
)
from c4x4det.verification import ScanReport

PLAN = plan(OddOne(3))

# (record class, field names, field values, exact repr)
RECORDS = [
    (OddOne, ("m",), (3,), "OddOne(m=3)"),
    (OddA, ("j", "k", "p1", "p2", "p3"), (0, 2, 5, 5, 5), "OddA(j=0, k=2, p1=5, p2=5, p3=5)"),
    (Even15, ("p", "odd_cofactor"), (5, -3), "Even15(p=5, odd_cofactor=-3)"),
    (Even16, ("m",), (3,), "Even16(m=3)"),
    (
        NotInS,
        ("reason",),
        (Reason.ODD_BAD_RESIDUE,),
        "NotInS(reason=<Reason.ODD_BAD_RESIDUE: 'odd_bad_residue'>)",
    ),
    (
        Factorization,
        ("sign", "factors"),
        (-1, ((2, 3), (5, 1))),
        "Factorization(sign=-1, factors=((2, 3), (5, 1)))",
    ),
    (
        WitnessPlan,
        ("case", "params"),
        (PLAN.case, PLAN.params),
        "WitnessPlan(case=<WitnessCase.ODD_16M_PLUS_1: 'odd_16m_plus_1'>, "
        "params=(('m', 3),))",
    ),
    (
        ScanReport,
        ("tuples_checked", "violations", "elapsed", "seen_values"),
        (2, (), 0.5, frozenset({1})),
        "ScanReport(tuples_checked=2, violations=(), elapsed=0.5, seen_values=frozenset({1}))",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    cls, names, values, text = request.param
    return cls, names, values, text, cls(*values)


def test_equality_within_class_only(record):
    cls, names, values, _, rec = record
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != values
    for other_cls, _, other_values, _ in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*other_values)  # OddOne(3) != Even16(3)


def test_hash_is_field_tuple_hash(record):
    cls, _, values, _, rec = record
    assert hash(rec) == hash(values) == hash(cls(*values))


def test_exact_repr(record):
    _, _, _, text, rec = record
    assert repr(rec) == text


def test_frozen(record):
    _, names, values, _, rec = record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert tuple(getattr(rec, name) for name in names) == values


def test_pickle_and_copy_round_trip(record):
    cls, _, _, _, rec = record
    assert copy.copy(rec) == rec
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec
    assert copy.deepcopy(rec) == rec


def test_keyword_construction(record):
    cls, names, values, _, rec = record
    assert cls(**dict(zip(names, values))) == rec
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == rec


def test_bad_fields_raise_type_error(record):
    cls, names, values, _, _ = record
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, unknown=0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls()

