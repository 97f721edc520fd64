import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qphylo import linalg
from qphylo.errors import ShapeMismatchError
from qphylo.linalg import PAULI_X, ProbabilityTensor, adjoint_action, kron, partial_trace

from conftest import random_complex, random_density, random_unitary


def kron_oracle(a, b):
    """Brute-force index formula, independent of numpy's implementation."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_double_bitflip_moves_basis_state(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.array_equal(kron(PAULI_X, PAULI_X) @ e0, np.eye(4)[3])

    def test_matches_index_oracle(self, rng):
        a = random_complex(rng, 2)
        b = random_complex(rng, 2)
        assert np.abs(kron(a, b) - kron_oracle(a, b)).max() < 1e-15

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([2, 3]))
    def test_associative(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a, b, c = random_complex(rng, n), random_complex(rng, m), random_complex(rng, 2)
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        # Entries are triple products; regrouping them costs at most an ulp.
        assert np.abs(left - right).max() <= 1e-14 * np.abs(left).max()


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        rho = random_density(rng, 2)
        sigma = random_complex(rng, 3)
        joint = kron(rho, sigma)
        assert np.abs(partial_trace(joint, [2, 3], 2) - rho * np.trace(sigma)).max() < 1e-13

    def test_bell_pair_reduces_to_maximally_mixed(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = np.outer(psi, psi.conj())
        assert np.abs(partial_trace(bell, [2, 2], 2) - np.eye(2) / 2).max() < 1e-15

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_preserves_trace(self, seed, traced):
        rng = np.random.default_rng(seed)
        dims = [2, 3, 2]
        a = random_complex(rng, 12)
        rho = a + a.conj().T
        out = partial_trace(rho, dims, traced)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-14

    def test_sequential_traces_equal_full_trace(self, rng):
        dims = [2, 3, 4]
        rho = random_complex(rng, 24)
        step = partial_trace(rho, dims, 1)
        step = partial_trace(step, [3, 4], 2)
        step = partial_trace(step, [3], 1)
        assert abs(step[0, 0] - np.trace(rho)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            partial_trace(np.eye(5), [2, 2], 1)
        with pytest.raises(ShapeMismatchError):
            partial_trace(np.eye(4), [2, 2], 3)


class TestAdjointAction:
    def test_identity(self, rng):
        rho = random_density(rng, 3)
        assert np.array_equal(adjoint_action(np.eye(3), rho), rho)

    def test_bitflip_swaps_diagonal(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.abs(adjoint_action(PAULI_X, rho) - np.diag([0.7, 0.3])).max() < 1e-15

    def test_unitary_preserves_trace_hermiticity_spectrum(self, rng):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        out = adjoint_action(u, rho)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-14
        assert linalg.is_hermitian(out, tol=1e-12)
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(out))
        assert np.abs(before - after).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            adjoint_action(np.eye(2), np.eye(3))


class TestPredicates:
    def test_unitary_and_hermitian(self, rng):
        u = random_unitary(rng, 4)
        assert linalg.is_unitary(u)
        assert not linalg.is_unitary(u + 1e-6)
        h = u + u.conj().T
        assert linalg.is_hermitian(h)


class TestApplyOnAxes:
    """Against the dense product kron(1_before, op, 1_after) on the flattened tensor."""

    DIMS = (3, 2, 4, 2)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bra", [False, True], ids=["ket", "ket-bra"])
    def test_matches_dense(self, rng, dtype, width, where, bra):
        def draw(*shape):
            real = rng.normal(size=shape)
            return real + 1j * rng.normal(size=shape) if dtype is complex else real

        dims = self.DIMS
        first = {"first": 0, "middle": 1, "last": len(dims) - width}[where]
        axes = list(range(first, first + width))
        before, block = int(np.prod(dims[:first])), int(np.prod(dims[first:first + width]))
        n = int(np.prod(dims))
        op = draw(block, block)
        full = np.kron(np.kron(np.eye(before), op), np.eye(n // (before * block)))
        if bra:
            rho = draw(n, n)
            out = linalg.apply_on_axes(op, rho.reshape(dims + dims), axes, [len(dims) + a for a in axes])
            expected = full @ rho @ full.conj().T
        else:
            rho = draw(n)
            out = linalg.apply_on_axes(op, rho.reshape(dims), axes)
            expected = full @ rho
        assert out.shape == (dims + dims if bra else dims) and out.dtype == op.dtype
        assert np.abs(out.reshape(expected.shape) - expected).max() < 1e-12

    def test_axes_must_be_consecutive(self, rng):
        with pytest.raises(ShapeMismatchError):
            linalg.apply_on_axes(np.eye(12), rng.random(self.DIMS), [0, 2])


class TestProbabilityTensor:
    def test_validates_mass_and_sign(self):
        with pytest.raises(ValueError):
            ProbabilityTensor(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            ProbabilityTensor(np.array([1.5, -0.5]))

    def test_shape_and_frozen_copy(self, rng):
        values = rng.dirichlet(np.ones(16)).reshape(4, 4)
        t = ProbabilityTensor(values)
        assert t.taxa == 2 and t.alphabet == 4
        assert np.array_equal(t.values, values) and not t.values.flags.writeable
