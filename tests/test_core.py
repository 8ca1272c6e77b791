import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import character_sums

from c4x4det.core import CoeffVec16, check_coefficients, derive

coeffs = st.tuples(*[st.integers(-1000, 1000)] * 16)


class TestCoeffVec16:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            CoeffVec16(range(15))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            CoeffVec16([1.0] + [0] * 15)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            CoeffVec16([True] + [0] * 15)

    @pytest.mark.parametrize("entries, bad", [
        ((0,) * 15 + ("1",), "1"),
        # the entries are checked before the length
        ((2.5,) * 17, 2.5),
        ((0, 2.5, True), 2.5),
    ], ids=["str", "float-17", "float-3"])
    def test_an_entry_that_is_not_an_int_raises_first(self, entries, bad):
        message = f"^coefficients must be exact integers, got {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            CoeffVec16(entries)

    def test_is_a_tuple(self):
        v = CoeffVec16(range(16))
        assert v[3] == 3 and len(v) == 16

    def test_repr_names_the_class_and_its_entries(self):
        assert repr(CoeffVec16(range(16))) == f"CoeffVec16({tuple(range(16))})"

    def test_reads_a_one_shot_iterator_once(self):
        assert CoeffVec16(iter(range(16))) == tuple(range(16))
        with pytest.raises(ValueError, match="^expected 16 coefficients, got 15$"):
            CoeffVec16(iter((1,) * 15))
        with pytest.raises(TypeError, match="^coefficients must be exact integers, got False$"):
            CoeffVec16(iter((0, False, 1.5)))

    def test_a_coeffvec16_comes_back_unchanged(self):
        v = CoeffVec16(range(16))
        assert CoeffVec16(v) is v
        # a plain tuple, even one of 16 ints, is checked and wrapped
        t = tuple(range(16))
        assert type(CoeffVec16(t)) is CoeffVec16
        with pytest.raises(TypeError):
            CoeffVec16((0.5,) * 16)


class IntSubclass(int):
    pass


class TestCheckCoefficients:
    def test_plain_ints_and_empty_input_pass(self):
        check_coefficients(tuple(range(-8, 8)))
        check_coefficients(())

    @pytest.mark.parametrize("position", [0, 7, 15])
    def test_an_int_subclass_passes(self, position):
        entries = [1] * 16
        entries[position] = IntSubclass(5)
        check_coefficients(tuple(entries))

    @pytest.mark.parametrize("position", [0, 7, 15])
    @pytest.mark.parametrize("bad", [True, False, 2.0, 2.5], ids=repr)
    def test_a_bool_or_a_float_anywhere_raises(self, bad, position):
        entries = [1] * 16
        entries[position] = bad
        with pytest.raises(TypeError) as raised:
            check_coefficients(tuple(entries))
        assert str(raised.value) == f"coefficients must be exact integers, got {bad!r}"

    def test_the_first_bad_entry_is_named(self):
        with pytest.raises(TypeError, match=r"got 2\.5$"):
            check_coefficients((IntSubclass(1), 2.5, True))


class TestDerive:
    def test_single_nonzero_entry(self):
        spectra = derive(CoeffVec16([1] + [0] * 15))
        assert spectra.b == (1, 0, 0, 0)
        assert spectra.c == (1, 0, 0, 0)
        assert spectra.d == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_constant_vector(self):
        spectra = derive(CoeffVec16([1] * 16))
        assert spectra.b == (4, 4, 4, 4)
        assert spectra.c == (0, 0, 0, 0)
        assert spectra.d == (0,) * 8

    def test_near_constant_vector(self):
        spectra = derive(CoeffVec16([2] + [1] * 15))
        assert spectra.b == (5, 4, 4, 4)
        assert spectra.c == (1, 0, 0, 0)
        assert spectra.d == (1, 0, 0, 0, 0, 0, 0, 0)

    @given(coeffs)
    def test_alpha_components(self, a):
        # alpha[i] = d[i] + i*d[i+4] is the argument z_i of character block 1
        d = derive(a).d
        assert character_sums(a, 1) == tuple((d[i], d[i + 4]) for i in range(4))

    @given(coeffs)
    def test_congruences(self, a):
        b, c, d = derive(a)
        for i in range(4):
            assert (b[i] - c[i]) % 2 == 0
            assert (b[i] - d[i] - d[i + 4]) % 2 == 0
            assert (b[i] + c[i] - 2 * d[i]) % 4 == 0
            assert (b[i] - c[i] - 2 * d[i + 4]) % 4 == 0

    @given(coeffs, coeffs)
    def test_linearity(self, a1, a2):
        summed = derive(tuple(x + y for x, y in zip(a1, a2)))
        s1, s2 = derive(a1), derive(a2)
        assert summed.b == tuple(x + y for x, y in zip(s1.b, s2.b))
        assert summed.c == tuple(x + y for x, y in zip(s1.c, s2.c))
        assert summed.d == tuple(x + y for x, y in zip(s1.d, s2.d))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            derive((1, 2, 3))
