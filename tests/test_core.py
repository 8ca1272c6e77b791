import pytest
from hypothesis import given
from hypothesis import strategies as st

from c4x4det.core import CoeffVec16, GaussInt, derive

coeffs = st.tuples(*[st.integers(-1000, 1000)] * 16)


class TestGaussInt:
    def test_arithmetic(self):
        z = GaussInt(1, 1)
        assert z * z == GaussInt(0, 2)
        assert z + GaussInt(2, -3) == GaussInt(3, -2)
        assert z - 1 == GaussInt(0, 1)
        assert 2 * z == GaussInt(2, 2)
        assert -z == GaussInt(-1, -1)
        assert z**4 == GaussInt(-4, 0) == -4

    def test_conjugate_and_norm(self):
        z = GaussInt(3, -4)
        assert z.conjugate() == GaussInt(3, 4)
        assert z.norm() == 25
        assert z * z.conjugate() == GaussInt(25, 0)

    def test_norm_nonnegative(self):
        for re in range(-5, 6):
            for im in range(-5, 6):
                assert GaussInt(re, im).norm() >= 0

    def test_immutable_and_hashable(self):
        z = GaussInt(1, 2)
        with pytest.raises(AttributeError):
            z.re = 5
        assert len({GaussInt(0, 1), GaussInt(0, 1), GaussInt(1, 0)}) == 2

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            GaussInt(1.5, 0)


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

    def test_is_a_tuple(self):
        v = CoeffVec16(range(16))
        assert v[3] == 3 and len(v) == 16


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

    def test_alpha_components(self):
        spectra = derive(tuple(range(16)))
        for i in range(4):
            assert spectra.alpha[i] == GaussInt(spectra.d[i], spectra.d[i + 4])

    @given(coeffs)
    def test_congruences(self, a):
        b, c, d, _ = derive(a)
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
