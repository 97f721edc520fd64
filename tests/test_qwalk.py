import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qphylo import linalg
from qphylo.channels import apply_channel, diagonalizer
from qphylo.errors import ShapeMismatchError
from qphylo.linalg import ProbabilityTensor
from qphylo.qwalk import (WalkConfig, closed_form_two_taxon, coin_distribution,
                          evolve_taxa_qw, qw_step_map, step_transition_matrix,
                          walk_unitary)

from conftest import random_density, random_unitary

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def two_step_walk_oracle(u, coin_state, n, rho, k):
    """Explicit joint-space simulation written out independently."""
    h = np.zeros((n, n), dtype=complex)
    for i in range(n):
        h[(i + 1) % n, i] = 1.0
    p_plus = np.diag([1.0, 0.0]).astype(complex)
    p_minus = np.diag([0.0, 1.0]).astype(complex)
    v = (np.kron(p_plus, h) + np.kron(p_minus, h.conj().T)) @ np.kron(u, np.eye(n))
    vk = np.linalg.matrix_power(v, k)
    joint = vk @ np.kron(coin_state, rho) @ vk.conj().T
    # trace out the first (coin) slot by summing its diagonal blocks
    out = np.zeros((n, n), dtype=complex)
    for c in range(2):
        out += joint[c * n:(c + 1) * n, c * n:(c + 1) * n]
    return out


class TestWalkUnitary:
    def test_binary_cycle_collapses_to_plain_flip(self):
        # For a 2-cycle the up and down shifts coincide, so V = U (x) X.
        cfg = WalkConfig.with_label(np.eye(2), "+", walker_dim=2)
        v = walk_unitary(cfg)
        assert np.array_equal(v, np.kron(np.eye(2), linalg.PAULI_X))

    def test_three_cycle_shift_action(self):
        cfg = WalkConfig.with_label(np.eye(2), "+", walker_dim=3)
        v = walk_unitary(cfg)
        for j in range(3):
            src = np.kron([1, 0], np.eye(3)[j])
            dst = np.kron([1, 0], np.eye(3)[(j + 1) % 3])
            assert np.abs(v @ src - dst).max() < 1e-15

    def test_unitarity_for_random_coin(self, rng):
        cfg = WalkConfig.with_label(random_unitary(rng, 2), "-", walker_dim=4)
        assert linalg.is_unitary(walk_unitary(cfg), tol=1e-13)


class TestQwStepMap:
    def test_identity_coin_is_pure_cyclic_shift(self, rng):
        rho = random_density(rng, 5)
        h = np.zeros((5, 5), dtype=complex)
        for i in range(5):
            h[(i + 1) % 5, i] = 1.0
        for k in (1, 2, 3):
            cfg = WalkConfig.with_label(np.eye(2), "+", steps=k, walker_dim=5)
            expected = np.linalg.matrix_power(h, k) @ rho @ np.linalg.matrix_power(h, k).conj().T
            assert np.abs(qw_step_map(cfg, rho) - expected).max() < 1e-13

    def test_hadamard_two_steps_matches_joint_simulation(self):
        cfg = WalkConfig.with_label(HADAMARD, "+", steps=2, walker_dim=4)
        rho = linalg.projector(1, 4)
        expected = two_step_walk_oracle(HADAMARD, np.diag([1.0, 0.0]).astype(complex), 4, rho, 2)
        assert np.abs(qw_step_map(cfg, rho) - expected).max() < 1e-14

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 5]), st.sampled_from([1, 2, 3]))
    def test_trace_preserved(self, seed, n, k):
        rng = np.random.default_rng(seed)
        cfg = WalkConfig(random_unitary(rng, 2), random_density(rng, 2), steps=k, walker_dim=n)
        rho = random_density(rng, n)
        out = qw_step_map(cfg, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_dimension_mismatch(self, rng):
        cfg = WalkConfig.with_label(np.eye(2), "+", walker_dim=4)
        with pytest.raises(ShapeMismatchError):
            qw_step_map(cfg, np.eye(3))


class TestCoinDistribution:
    def test_identity_coin_concentrates(self):
        q = coin_distribution(np.eye(2), "+", 5)
        assert np.array_equal(q, [0, 0, 1, 0, 0])

    def test_hadamard_coin_splits_between_two_shifts(self):
        q = coin_distribution(HADAMARD, "+", 4)
        assert np.abs(q - [0.5, 0.0, 0.5, 0.0]).max() < 1e-15

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["+", "-"]), st.sampled_from([2, 3, 4, 5]))
    def test_probability_vector_for_any_coin(self, seed, label, n):
        rng = np.random.default_rng(seed)
        q = coin_distribution(random_unitary(rng, 2), label, n)
        assert q.min() >= -1e-14
        assert abs(q.sum() - 1.0) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["+", "-"]), st.sampled_from([2, 3, 4, 5]))
    def test_matches_simulation_marginal(self, seed, label, n):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 2)
        q = coin_distribution(u, label, n)
        cfg = WalkConfig.with_label(u, label, steps=2, walker_dim=n)
        out = apply_channel(diagonalizer(n), qw_step_map(cfg, linalg.projector(0, n)))
        assert np.abs(np.diag(out).real - q).max() < 1e-12


class TestStepTransition:
    def test_doubly_stochastic_action(self, rng):
        cfg = WalkConfig.with_label(random_unitary(rng, 2), "-", steps=2, walker_dim=5)
        t = step_transition_matrix(cfg)
        assert np.abs(t.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-12


class TestEvolveTaxa:
    def test_identity_coins_shift_indices(self, rng):
        values = rng.dirichlet(np.ones(16)).reshape(4, 4)
        t = ProbabilityTensor(values)
        cfg = WalkConfig.with_label(np.eye(2), "+", steps=2, walker_dim=4)
        out = evolve_taxa_qw(t, [cfg, cfg])
        assert np.abs(out.values - np.roll(values, (2, 2), axis=(0, 1))).max() < 1e-13

    def test_mass_conserved_three_taxa(self, rng):
        values = rng.dirichlet(np.ones(27)).reshape(3, 3, 3)
        cfgs = [WalkConfig.with_label(random_unitary(rng, 2), "+", walker_dim=3) for _ in range(3)]
        out = evolve_taxa_qw(ProbabilityTensor(values), cfgs)
        assert abs(out.values.sum() - 1.0) < 1e-12

    def test_config_count_mismatch(self, rng):
        t = ProbabilityTensor(rng.dirichlet(np.ones(16)).reshape(4, 4))
        with pytest.raises(ShapeMismatchError):
            evolve_taxa_qw(t, [WalkConfig.with_label(np.eye(2), "+", walker_dim=4)])


class TestClosedForm:
    def test_point_mass_shift_distribution_is_identity(self, rng):
        values = rng.dirichlet(np.ones(16)).reshape(4, 4)
        t = ProbabilityTensor(values)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.abs(closed_form_two_taxon(t, q).values - values).max() < 1e-15

    def test_uniform_shift_distribution_flattens(self, rng):
        values = rng.dirichlet(np.ones(16)).reshape(4, 4)
        out = closed_form_two_taxon(ProbabilityTensor(values), np.full(4, 0.25))
        assert np.abs(out.values - 1.0 / 16.0).max() < 1e-13

    def test_matches_full_simulation(self, rng):
        for n in (2, 3, 4, 5):
            for label in ("+", "-"):
                u = random_unitary(rng, 2)
                values = rng.dirichlet(np.ones(n * n)).reshape(n, n)
                t = ProbabilityTensor(values)
                cfg = WalkConfig.with_label(u, label, steps=2, walker_dim=n)
                sim = evolve_taxa_qw(t, [cfg, cfg])
                closed = closed_form_two_taxon(t, coin_distribution(u, label, n))
                assert np.abs(sim.values - closed.values).max() < 1e-12

    def test_hadamard_coin_matches_simulation(self, rng):
        values = rng.dirichlet(np.ones(16)).reshape(4, 4)
        t = ProbabilityTensor(values)
        cfg = WalkConfig.with_label(HADAMARD, "+", steps=2, walker_dim=4)
        sim = evolve_taxa_qw(t, [cfg, cfg])
        closed = closed_form_two_taxon(t, coin_distribution(HADAMARD, "+", 4))
        assert np.abs(sim.values - closed.values).max() < 1e-12

    def test_size_mismatch(self, rng):
        t = ProbabilityTensor(rng.dirichlet(np.ones(16)).reshape(4, 4))
        with pytest.raises(ShapeMismatchError):
            closed_form_two_taxon(t, np.array([0.5, 0.5]))
