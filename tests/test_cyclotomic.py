import numpy as np
import pytest

from hofa.cyclotomic import CycloRing, ring
from ringref import ref_conj, ref_mul

# Z, Z[zeta_2] = Z, Z[i], Z[zeta_8], Z[zeta_16], Z[omega], Z[zeta_9]
RINGS = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]

# trailing shapes of the operand pairs: scalars, columns, the corner pair,
# unequal ndim both ways, and a column-kernel chunk
SHAPES = [
    ((), ()),
    ((8,), (8,)),
    ((1, 8, 8, 1), (1, 1, 1, 8)),
    ((8,), (3, 8)),
    ((5, 1, 4), (4,)),
    ((), (5,)),
    ((64, 128), (64, 128)),
]


def _operands(R, sa, sb, dtype, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-50, 51, (R.degree,) + sa)
    B = rng.integers(-50, 51, (R.degree,) + sb)
    if dtype is object:  # entries past int64 in both factors
        return A.astype(object) * 2**70 + 1, B.astype(object) * 3**50 - 1
    return A.astype(dtype), B.astype(dtype)


class TestOneProduct:
    @pytest.mark.parametrize("p, m", RINGS)
    @pytest.mark.parametrize("sa, sb", SHAPES)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_matches_einsum_reference(self, p, m, sa, sb, dtype):
        R = ring(p, m)
        A, B = _operands(R, sa, sb, dtype, 7 * p + m)
        got = R.mul_arrays(A, B)
        want = ref_mul(R, A, B)
        assert got.shape == want.shape and got.dtype == np.result_type(A, B)
        assert np.array_equal(got, want)
        assert np.array_equal(R.mul_arrays(B, A), want)

    @pytest.mark.parametrize("p, m", RINGS)
    def test_mag_squared_and_conj(self, p, m):
        R = ring(p, m)
        A, _ = _operands(R, (6,), (), np.int64, m)
        assert np.array_equal(R.conj_arrays(A), ref_conj(R, A))
        assert np.array_equal(R.conj_arrays(A[:, 0]), ref_conj(R, A[:, 0]))
        assert np.array_equal(R.mag_squared(A), ref_mul(R, A, ref_conj(R, A)))

    @pytest.mark.parametrize("p, m", [(2, 3), (3, 1), (3, 2)])
    def test_each_size_takes_its_branch(self, p, m):
        # small products fold the outer product of the planes by one matmul,
        # large ones accumulate the signed plane products; each branch is
        # poisoned in turn, and both give the same dtype
        for small, large in [((), (64, 128)), ((512,), (513,))]:
            for dtype in (np.int32, np.int64, object):
                R = CycloRing(p, m)
                a, b = _operands(R, small, small, np.int64, 1)
                A, B = _operands(R, large, large, np.int64, 2)
                a, b, A, B = (x.astype(dtype) for x in (a, b, A, B))
                R._terms = None
                assert np.array_equal(R.mul_arrays(a, b), ref_mul(R, a, b))
                with pytest.raises((TypeError, ValueError)):  # the poisoned table
                    R.mul_arrays(A, B)
                R = CycloRing(p, m)
                R._fold = None
                big = R.mul_arrays(A, B)
                assert np.array_equal(big, ref_mul(R, A, B))
                with pytest.raises((TypeError, ValueError)):  # the poisoned table
                    R.mul_arrays(a, b)
                assert big.dtype == ring(p, m).mul_arrays(a, b).dtype == np.result_type(dtype)
