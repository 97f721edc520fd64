import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qphylo import linalg
from qphylo.channels import (DiagonalDensity, KrausChannel, apply_channel,
                             collective_diagonalizer, control_not, diagonalizer,
                             diagonalizer_fourier, split, split_at)
from qphylo.errors import ShapeMismatchError
from qphylo.linalg import PAULI_X, PAULI_Z

from conftest import random_complex, random_density, random_unitary

PLUS = np.full((2, 2), 0.5, dtype=complex)  # |+><+|


class TestKrausChannel:
    def test_rejects_incomplete_operators(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausChannel((0.5 * np.eye(2),), label="broken")

    def test_rejects_mixed_dimensions(self):
        # Mixed sizes, a non-square operator, no operator, a 1-d one, and a ragged pair.
        for operators in ((np.eye(2), np.eye(3)), (np.ones((2, 3)),), (), (np.ones(3),),
                          (np.ones(2), np.eye(2))):
            with pytest.raises(ShapeMismatchError):
                KrausChannel(operators)

    def test_operators_are_one_read_only_complex_stack(self):
        ch = KrausChannel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.real(PAULI_X)))
        assert ch.operators.shape == (2, 2, 2) and ch.operators.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            ch.operators[0, 0, 0] = 1.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6), st.booleans())
    def test_stack_forms_equal_the_per_operator_loops(self, seed, dim, count, is_complex):
        rng = np.random.default_rng(seed)
        ops = rng.normal(size=(count, dim, dim))
        if is_complex:
            ops = ops + 1j * rng.normal(size=(count, dim, dim))
        ch = KrausChannel(ops, trace_preserving=False)
        rho = random_complex(rng, dim)
        out = np.zeros((dim, dim), dtype=complex)
        for k in ch.operators:
            out += k @ rho @ k.conj().T
        assert np.array_equal(apply_channel(ch, rho), out)
        completeness = sum(k.conj().T @ k for k in ch.operators)
        assert ch.completeness_defect() == linalg.max_abs(completeness - linalg.identity(dim))

    def test_identity_channel(self, rng):
        rho = random_density(rng, 2)
        ch = KrausChannel((np.eye(2, dtype=complex),), label="id")
        assert np.array_equal(apply_channel(ch, rho), rho)

    def test_half_flip_channel_by_hand(self):
        ch = KrausChannel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * PAULI_X))
        out = apply_channel(ch, np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-15

    @given(st.integers(0, 2**32 - 1))
    def test_random_channel_preserves_trace(self, seed):
        rng = np.random.default_rng(seed)
        # Two random operators completed to a trace-preserving pair via the
        # square-root trick: K0 a contraction (spectral norm 0.5), K1 = sqrt(1 - K0+K0).
        a = random_complex(rng, 3)
        a = 0.5 * a / np.linalg.norm(a, 2)
        gram = np.eye(3) - a.conj().T @ a
        w, v = np.linalg.eigh(gram)
        k1 = v @ np.diag(np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        ch = KrausChannel((a, k1))
        rho = random_density(rng, 3)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            apply_channel(diagonalizer(3), np.eye(2))


class TestDiagonalizer:
    def test_fixes_diagonal_matrices(self, rng):
        d = np.diag(rng.random(4)).astype(complex)
        assert np.abs(apply_channel(diagonalizer(4), d) - d).max() < 1e-15

    def test_plus_state_decoheres(self):
        out = apply_channel(diagonalizer(2), PLUS)
        assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-15

    def test_completeness_exact(self):
        for n in (2, 4, 5):
            assert diagonalizer(n).completeness_defect() == 0.0

    def test_idempotent(self, rng):
        ch = diagonalizer(5)
        m = random_complex(rng, 5)
        once = apply_channel(ch, m)
        assert np.abs(apply_channel(ch, once) - once).max() < 1e-13

    def test_rejects_dimension_one(self):
        with pytest.raises(ShapeMismatchError):
            diagonalizer(1)


class TestDiagonalizerFourier:
    def test_two_dim_operators_are_identity_and_phase(self):
        ops = diagonalizer_fourier(2).operators
        assert np.abs(ops[0] - np.sqrt(0.5) * np.eye(2)).max() < 1e-15
        assert np.abs(ops[1] - np.sqrt(0.5) * PAULI_Z).max() < 1e-15
        out = apply_channel(diagonalizer_fourier(2), PLUS)
        assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-15

    def test_matches_projector_form(self, rng):
        for n in (2, 4, 5):
            proj = diagonalizer(n)
            four = diagonalizer_fourier(n)
            for _ in range(50):
                m = random_complex(rng, n)
                dev = np.abs(apply_channel(proj, m) - apply_channel(four, m)).max()
                assert dev < 1e-12

    def test_each_operator_unitary_up_to_weight(self):
        for n in (2, 4, 5):
            for op in diagonalizer_fourier(n).operators:
                u = op * np.sqrt(n)
                assert linalg.max_abs(u @ u.conj().T - np.eye(n)) < 1e-14


class TestCollectiveDiagonalizer:
    def test_fixed_point(self):
        ch = collective_diagonalizer(4)
        state = linalg.kron(linalg.projector(1, 4), linalg.projector(1, 4))
        assert np.abs(apply_channel(ch, state) - state).max() < 1e-15

    def test_annihilates_off_collective(self):
        ch = collective_diagonalizer(4)
        state = linalg.kron(linalg.projector(1, 4), linalg.projector(2, 4))
        assert np.abs(apply_channel(ch, state)).max() == 0.0

    def test_rotated_projector_lands_on_fourth_powers(self, rng):
        ch = collective_diagonalizer(4)
        u = random_unitary(rng, 4)
        state = linalg.adjoint_action(linalg.kron(u, u),
                                      linalg.kron(linalg.projector(1, 4), linalg.projector(1, 4)))
        out = apply_channel(ch, state)
        expected = np.zeros((16, 16), dtype=complex)
        for k in range(4):
            expected[5 * k, 5 * k] = np.abs(u[k, 1]) ** 4
        assert np.abs(out - expected).max() < 1e-13

    def test_flagged_trace_non_increasing(self):
        ch = collective_diagonalizer(3)
        assert not ch.trace_preserving
        assert ch.completeness_defect() > 0.5


class TestControlNot:
    def test_qubit_form(self):
        expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert np.array_equal(control_not(2), expected)

    def test_three_state_modular_shift(self):
        u = control_not(3)
        src = np.zeros(9)
        src[3 * 2 + 2] = 1.0  # |2,2>
        dst = u @ src
        assert dst[3 * 2 + 1] == 1.0  # |2, 2+2 mod 3> = |2,1>

    def test_permutation_and_exactly_unitary(self):
        for n in range(2, 6):
            u = control_not(n)
            assert np.isin(u, (0.0, 1.0)).all()
            assert (u.sum(axis=0) == 1.0).all() and (u.sum(axis=1) == 1.0).all()
            assert linalg.max_abs(u.conj().T @ u - np.eye(n * n)) == 0.0


class TestDiagonalDensity:
    def test_null_weight_must_vanish(self):
        with pytest.raises(ValueError):
            DiagonalDensity(np.array([0.1, 0.9]))

    def test_from_block_roundtrip(self):
        rho = DiagonalDensity.from_block([0.25, 0.75])
        assert rho.dim == 3
        assert np.array_equal(rho.block, [0.25, 0.75])
        assert np.array_equal(np.diag(rho.matrix()).real, [0.0, 0.25, 0.75])


class TestSplit:
    def test_binary_uniform(self):
        t = split(DiagonalDensity.from_block([0.5, 0.5]))
        assert np.abs(t.values - np.diag([0.5, 0.5])).max() == 0.0

    def test_dna_point_mass(self):
        t = split(DiagonalDensity.from_block([1.0, 0.0, 0.0, 0.0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(t.values, expected)

    def test_matches_full_conjugation(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            rho = DiagonalDensity.from_block(p)
            t = split(rho)
            ucn = control_not(5)
            joint = linalg.adjoint_action(ucn, linalg.kron(rho.matrix(), linalg.projector(0, 5)))
            diag = np.diag(joint).real.reshape(5, 5)
            assert np.abs(diag[1:, 1:] - t.values).max() < 1e-13
            assert np.abs(diag[0, :]).max() == 0.0
            assert np.abs(diag[:, 0]).max() == 0.0

    def test_off_diagonal_mass_exactly_zero(self, rng):
        t = split(DiagonalDensity.from_block(rng.dirichlet(np.ones(4))))
        off = t.values - np.diag(np.diag(t.values))
        assert np.abs(off).max() == 0.0


class TestSplitAt:
    def test_single_taxon_reduces_to_split(self, rng):
        p = rng.dirichlet(np.ones(4))
        via_split = split(DiagonalDensity.from_block(p))
        assert np.array_equal(via_split.values, split_at(p, 1))

    def test_two_taxon_index_formula(self, rng):
        values = rng.dirichlet(np.ones(9)).reshape(3, 3)
        out = split_at(values, 2)
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    expected = values[i, j] if j == l else 0.0
                    assert out[i, j, l] == expected

    def test_marginal_roundtrip(self, rng):
        values = rng.dirichlet(np.ones(64)).reshape(4, 4, 4)
        for k in (1, 2, 3):
            back = split_at(values, k).sum(axis=k)
            assert np.abs(back - values).max() < 1e-13

    def test_commutes_with_permuting_untouched_slots(self, rng):
        values = rng.dirichlet(np.ones(64)).reshape(4, 4, 4)
        left = split_at(values.transpose(0, 2, 1), 1)
        right = split_at(values, 1).transpose(0, 1, 3, 2)
        assert np.array_equal(left, right)

    def test_invalid_slot(self, rng):
        with pytest.raises(ShapeMismatchError):
            split_at(rng.dirichlet(np.ones(4)), 2)
