import math

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from qphylo import linalg
from qphylo.channels import apply_channel
from qphylo.errors import ModelError, NotUnistochasticError
from qphylo.models import (_CONTROLLED_FLIPS, _FLIPS, ModelParams, _householder_with_first_column,
                           binary_channel, binary_dilation,
                           binary_from_branch_length, bitflip_generator, bitflip_unitary,
                           group_channel, jc_from_branch_length,
                           markov, prune_matrix, prune_operators, qw_dilation,
                           unitary_from_markov, validate_markov, weights)

from conftest import random_density, random_unitary

ALL_FAMILY_DRAWS = [
    ModelParams.jc(0.21),
    ModelParams.k2(0.15, 0.22),
    ModelParams.k3(0.1, 0.2, 0.3),
    ModelParams.binary(0.37),
    ModelParams.felsenstein(0.4, (0.1, 0.2, 0.3, 0.4)),
]


class TestModelParams:
    def test_rejects_weights_off_simplex(self):
        with pytest.raises(ModelError):
            ModelParams.k3(0.5, 0.4, 0.2)
        with pytest.raises(ModelError):
            ModelParams.jc(0.4)  # identity weight 1-3a < 0

    def test_rejects_bad_stationary(self):
        with pytest.raises(ModelError):
            ModelParams.felsenstein(0.5, (0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ModelError):
            ModelParams.felsenstein(0.5, (0.5, 0.5))

    def test_family_arity(self):
        with pytest.raises(ModelError):
            ModelParams("JC", 0.1, b=0.2)

    @pytest.mark.parametrize("build", [
        ModelParams.binary,
        ModelParams.jc,
        lambda a: ModelParams.felsenstein(a, (0.25, 0.25, 0.25, 0.25)),
        lambda a: ModelParams.k3(a, 0.0, 0.0),
        lambda a: ModelParams.k3(0.0, 0.0, a),
    ])
    @pytest.mark.parametrize("a", [-1e-13, 1.0 + 1e-13])
    def test_rejects_given_weight_just_outside_unit_interval(self, build, a):
        with pytest.raises(ModelError, match=r"outside \[0, 1\]"):
            build(a)

    def test_equality_by_value(self):
        pi = (0.1, 0.2, 0.3, 0.4)
        assert ModelParams.felsenstein(0.5, pi) == ModelParams.felsenstein(0.5, pi)
        assert ModelParams.felsenstein(0.5, pi) != ModelParams.felsenstein(0.5, (0.4, 0.3, 0.2, 0.1))
        assert ModelParams.felsenstein(0.5, pi) != ModelParams.felsenstein(0.6, pi)
        assert ModelParams.felsenstein(0.25, (0.25,) * 4) != ModelParams.jc(0.25)
        assert ModelParams.k3(0.1, 0.2, 0.3) == ModelParams("K3", 0.1, b=0.2, c=0.3)
        assert ModelParams.k3(0.1, 0.2, 0.3) != ModelParams.k3(0.1, 0.3, 0.2)
        assert ModelParams.jc(0.1) != "JC"

    def test_hash_by_value(self):
        as_list = ModelParams("F", 0.5, pi=[0.1, 0.2, 0.3, 0.4])
        as_array = ModelParams.felsenstein(0.5, np.array([0.1, 0.2, 0.3, 0.4]))
        assert hash(as_list) == hash(as_array)
        table = {as_list: "edge", ModelParams.jc(0.1): "shared"}
        assert table[as_array] == "edge"
        assert table[ModelParams.jc(0.1)] == "shared"
        assert len({as_list, as_array, ModelParams.felsenstein(0.5, (0.4, 0.3, 0.2, 0.1))}) == 2

    def test_identity_weight_keeps_rounding_slack(self):
        params = ModelParams.k3(0.5, 0.5, 1e-13)
        assert 1.0 - sum(params.flip_weights()) < 0.0
        assert weights(params).vector.min() == 0.0


class TestWeights:
    def test_identity_limit(self):
        assert np.array_equal(weights(ModelParams.jc(0.0)).vector, [1.0, 0.0, 0.0, 0.0])

    def test_three_parameter_assignment(self):
        lam = weights(ModelParams.k3(0.1, 0.2, 0.3)).lam
        assert lam[0, 0] == pytest.approx(0.4)
        assert lam[1, 0] == 0.1
        assert lam[0, 1] == 0.2
        assert lam[1, 1] == 0.3

    def test_two_parameter_ties_single_flips(self):
        lam = weights(ModelParams.k2(0.1, 0.2)).lam
        assert lam[0, 1] == lam[1, 1] == 0.2


def kron_flip(k, l):
    """X^k (x) X^l as a tensor product of Pauli X factors."""
    eye2 = linalg.identity(2)
    return linalg.kron(linalg.PAULI_X if k else eye2, linalg.PAULI_X if l else eye2)


def markov_weight_sum_oracle(params):
    """Entry-wise convex sum of Hadamard squares of the flip unitaries."""
    lam = weights(params).lam
    total = np.zeros((4, 4))
    for k in (0, 1):
        for l in (0, 1):
            u = kron_flip(k, l)
            total += lam[k, l] * (u * u.conj()).real
    return total


class TestMarkov:
    def test_k3_first_row(self):
        m = markov(ModelParams.k3(0.1, 0.2, 0.3))
        assert np.abs(m[0] - [0.4, 0.2, 0.1, 0.3]).max() < 1e-15

    def test_binary_matrix(self):
        assert np.array_equal(markov(ModelParams.binary(0.3)), [[0.7, 0.3], [0.3, 0.7]])

    def test_f_uniform_reduces_to_jc(self):
        for a in np.linspace(0.0, 1.0, 7):
            mf = markov(ModelParams.felsenstein(a, np.full(4, 0.25)))
            mjc = markov(ModelParams.jc((1.0 - a) / 4.0))
            assert np.abs(mf - mjc).max() < 1e-14

    def test_group_families_match_weight_sum_oracle(self, rng):
        for _ in range(25):
            lam = rng.dirichlet(np.ones(4))
            params = ModelParams.k3(lam[1], lam[2], lam[3])
            assert np.abs(markov(params) - markov_weight_sum_oracle(params)).max() < 1e-14

    def test_stochasticity(self):
        for params in ALL_FAMILY_DRAWS:
            m = markov(params)
            validate_markov(m)
            if params.family != "F":
                validate_markov(m, doubly_stochastic=True)
                assert np.abs(m - m.T).max() == 0.0

    def test_f_column_update(self):
        m = markov(ModelParams.felsenstein(0.5, (0.1, 0.2, 0.3, 0.4)))
        assert np.abs(m[:, 0] - [0.55, 0.10, 0.15, 0.20]).max() < 1e-15

    def test_f_identity_limit(self, rng):
        m = markov(ModelParams.felsenstein(1.0, (0.1, 0.2, 0.3, 0.4)))
        p = rng.dirichlet(np.ones(4))
        assert np.abs(m @ p - p).max() < 1e-15

    def test_f_uniform_equals_group_channel(self, rng):
        a = 0.35
        m = markov(ModelParams.felsenstein(a, np.full(4, 0.25)))
        jc = group_channel(ModelParams.jc((1.0 - a) / 4.0))
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            via_jc = np.diag(apply_channel(jc, np.diag(p).astype(complex))).real
            assert np.abs(m @ p - via_jc).max() < 1e-12


class TestGroupChannel:
    def test_identity_limit(self):
        ch = group_channel(ModelParams.jc(0.0))
        assert len(ch.operators) == 1
        assert np.array_equal(ch.operators[0], np.eye(4))

    def test_point_mass_maps_to_markov_column(self, rng):
        params = ModelParams.k3(0.1, 0.2, 0.3)
        out = apply_channel(group_channel(params), np.diag([1.0, 0, 0, 0]).astype(complex))
        assert np.abs(np.diag(out).real - markov(params)[:, 0]).max() < 1e-15

    def test_completeness_exact(self):
        for params in ALL_FAMILY_DRAWS[:3]:
            assert group_channel(params).completeness_defect() < 1e-15


class TestBinaryChannel:
    def test_limits(self):
        assert len(binary_channel(0.0).operators) == 1
        flip = binary_channel(1.0)
        out = apply_channel(flip, np.diag([0.3, 0.7]).astype(complex))
        assert np.abs(np.diag(out).real - [0.7, 0.3]).max() == 0.0

    def test_point_mass(self):
        out = apply_channel(binary_channel(0.3), np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(np.diag(out).real - [0.7, 0.3]).max() < 1e-15

    def test_range_check(self):
        with pytest.raises(ModelError):
            binary_channel(1.2)


class TestQwDilation:
    def test_identity_limit(self, rng):
        dil = qw_dilation(ModelParams.jc(0.0))
        rho = random_density(rng, 4)
        assert np.abs(dil.apply(rho) - rho).max() < 1e-14

    def test_coin_column_squares_to_weights(self):
        params = ModelParams.k3(0.1, 0.2, 0.3)
        dil = qw_dilation(params)
        u_coin = dil.unitary @ np.kron(np.eye(4), np.eye(4))  # full V
        # First coin column is accessible through the metadata contract.
        col = np.asarray(dil.metadata["coin_column"])
        assert np.abs(col ** 2 - weights(params).vector).max() < 1e-15

    def test_unitary_bytes_match_block_diag_form(self, rng):
        for _ in range(10):
            a, b, c = rng.dirichlet(np.ones(4))[:3]
            for params in (ModelParams.jc(a / 3.0), ModelParams.k2(a, b / 2.0), ModelParams.k3(a, b, c)):
                u_coin = _householder_with_first_column(np.sqrt(weights(params).vector)).astype(complex)
                old = block_diag(*_FLIPS[4]) @ linalg.kron(u_coin, linalg.identity(4))
                assert qw_dilation(params).unitary.tobytes() == old.tobytes()
        assert not _CONTROLLED_FLIPS.flags.writeable

    def test_traced_action_matches_channel(self, rng):
        for params in ALL_FAMILY_DRAWS[:3]:
            ch = group_channel(params)
            dil = qw_dilation(params)
            for _ in range(20):
                rho = random_density(rng, 4)
                assert np.abs(dil.apply(rho) - apply_channel(ch, rho)).max() < 1e-12


class TestBinaryDilation:
    def test_unit_weight_is_identity(self, rng):
        dil = binary_dilation(1.0)
        assert np.abs(dil.unitary - np.eye(4)).max() == 0.0
        rho = random_density(rng, 2)
        assert np.abs(dil.apply(rho) - rho).max() < 1e-14

    def test_zero_weight_is_pure_flip(self, rng):
        dil = binary_dilation(0.0)
        rho = random_density(rng, 2)
        flipped = linalg.adjoint_action(linalg.PAULI_X, rho)
        assert np.abs(dil.apply(rho) - flipped).max() < 1e-14

    def test_unitarity(self):
        v = binary_dilation(0.3).unitary
        assert linalg.max_abs(v @ v.conj().T - np.eye(4)) < 1e-14

    def test_metadata_records_realized_flip_weight(self, rng):
        dil = binary_dilation(0.3)
        assert dil.metadata["flip_weight"] == pytest.approx(0.7)
        assert dil.metadata["matches"] == "1-a"
        ch = binary_channel(dil.metadata["flip_weight"])
        for _ in range(10):
            rho = random_density(rng, 2)
            assert np.abs(dil.apply(rho) - apply_channel(ch, rho)).max() < 1e-12


class TestBitflipUnitary:
    def test_matches_pauli_tensor_products(self):
        for k in (0, 1):
            for l in (0, 1):
                assert np.array_equal(bitflip_unitary(k, l), kron_flip(k, l))

    def test_returns_a_writable_copy(self):
        u = bitflip_unitary(1, 0)
        u[0, 0] = 5.0
        assert np.array_equal(bitflip_unitary(1, 0), kron_flip(1, 0))


class TestBitflipGenerators:
    def test_exponentials_reproduce_unitaries(self):
        for k in (0, 1):
            for l in (0, 1):
                u = expm(1j * bitflip_generator(k, l))
                assert np.abs(u - bitflip_unitary(k, l)).max() < 1e-10


class TestUnitaryFromMarkov:
    def test_identity(self):
        assert np.array_equal(unitary_from_markov(np.eye(4)), np.eye(4))

    def test_uniform_quarter(self):
        m = np.full((4, 4), 0.25)
        u = unitary_from_markov(m)
        assert linalg.max_abs(np.abs(u) ** 2 - m) < 1e-10
        assert linalg.is_unitary(u)

    def test_balanced_binary(self):
        m = markov(ModelParams.binary(0.5))
        u = unitary_from_markov(m)
        assert linalg.max_abs(np.abs(u) ** 2 - m) < 1e-12
        assert np.abs(np.abs(u) - np.sqrt(0.5)).max() < 1e-12

    def test_recovers_group_structured_targets(self, rng):
        # Targets built from unitaries of the group-circulant form are
        # unistochastic by construction.
        for _ in range(5):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
            chars = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
            c = chars.T @ phases / 4.0
            u_true = sum(c[g] * bitflip_unitary(g >> 1, g & 1) for g in range(4))
            m = np.abs(u_true) ** 2
            u = unitary_from_markov(m)
            assert linalg.max_abs(np.abs(u) ** 2 - m) < 1e-8

    def test_generic_unistochastic_from_random_unitary(self, rng):
        u_true = random_unitary(rng, 3)
        m = np.abs(u_true) ** 2
        u = unitary_from_markov(m)
        assert linalg.max_abs(np.abs(u) ** 2 - m) < 1e-8
        assert linalg.is_unitary(u)

    def test_reports_genuinely_non_unistochastic(self):
        # Equal thirds off the identity: needs three pairwise-orthogonal unit
        # phases in the plane, which cannot exist.
        with pytest.raises(NotUnistochasticError):
            unitary_from_markov(markov(ModelParams.jc(1.0 / 3.0)), max_starts=12)

    def test_rejects_non_doubly_stochastic(self):
        m = markov(ModelParams.felsenstein(0.5, (0.1, 0.2, 0.3, 0.4)))
        with pytest.raises(ModelError):
            unitary_from_markov(m)


def jc_weight_oracle(t):
    """Independent route: the per-target transition of the rate-matrix flow."""
    q = np.full((4, 4), 1.0 / 3.0)
    np.fill_diagonal(q, -1.0)
    return expm(q * t)[0, 1]


class TestBranchLengths:
    def test_limits(self):
        assert jc_from_branch_length(0.0).a == 0.0
        # Total change probability saturates at 3/4; per flip target, 1/4.
        assert 3 * jc_from_branch_length(200.0).a == pytest.approx(0.75, abs=1e-12)
        assert binary_from_branch_length(0.0).a == 0.0
        assert binary_from_branch_length(100.0).a == pytest.approx(0.5, abs=1e-12)

    def test_half_unit_branch_against_rate_flow(self):
        a = jc_from_branch_length(0.5).a
        assert 3 * a == pytest.approx(0.75 * (1.0 - math.exp(-2.0 / 3.0)), abs=1e-15)
        assert a == pytest.approx(jc_weight_oracle(0.5), abs=1e-12)

    def test_semigroup(self, rng):
        for _ in range(10):
            t1, t2 = rng.uniform(0.0, 2.0, size=2)
            m1 = markov(jc_from_branch_length(t1))
            m2 = markov(jc_from_branch_length(t2))
            m12 = markov(jc_from_branch_length(t1 + t2))
            assert np.abs(m1 @ m2 - m12).max() < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            jc_from_branch_length(-0.1)


FLIP_FAMILY_DRAWS = ALL_FAMILY_DRAWS[:4] + [
    ModelParams.jc(0.0), ModelParams.jc(1.0 / 3.0), ModelParams.k2(0.0, 0.5), ModelParams.k2(1.0, 0.0),
    ModelParams.k3(0.0, 0.0, 1.0), ModelParams.k3(0.5, 0.5, 0.0), ModelParams.binary(0.0),
    ModelParams.binary(1.0),
]


class TestPruneOperators:
    def test_binary_operators_are_scaled_identity_and_flip(self):
        a = 0.37
        ops = prune_operators(ModelParams.binary(a))
        expected = [math.sqrt(1.0 - a) * linalg.identity(2), math.sqrt(a) * linalg.PAULI_X]
        assert len(ops) == 2
        assert all(np.array_equal(op, ref) for op, ref in zip(ops, expected))

    def test_binary_limits_drop_one_operator(self):
        (stay,) = prune_operators(ModelParams.binary(0.0))
        assert np.array_equal(stay, linalg.identity(2))
        (flip,) = prune_operators(ModelParams.binary(1.0))
        assert np.array_equal(flip, linalg.PAULI_X)

    def test_binary_weight_outside_unit_interval_rejected(self):
        for a in (-1e-13, 1.0 + 1e-13):
            with pytest.raises(ModelError):
                prune_operators(ModelParams.binary(a))

    def test_flip_families_resolve_identity(self):
        for params in FLIP_FAMILY_DRAWS:
            ops = prune_operators(params)
            total = sum(op.conj().T @ op for op in ops)
            assert np.abs(total - np.eye(params.n_states)).max() < 1e-15

    def test_channel_operators_are_prune_operators(self):
        for params in FLIP_FAMILY_DRAWS:
            channel = binary_channel(params.a) if params.family == "B" else group_channel(params)
            ops = prune_operators(params)
            assert len(channel.operators) == len(ops)
            assert all(np.array_equal(c, op) for c, op in zip(channel.operators, ops))

    def test_squared_moduli_sum_to_prune_matrix(self):
        for params in ALL_FAMILY_DRAWS:
            ops = prune_operators(params)
            total = sum(np.abs(np.asarray(op)) ** 2 for op in ops)
            assert np.abs(total - prune_matrix(params)).max() < 1e-14

    def test_diagonal_action(self, rng):
        for params in ALL_FAMILY_DRAWS:
            n = params.n_states
            l = rng.random(n)
            out = sum(op @ np.diag(l).astype(complex) @ op.conj().T for op in prune_operators(params))
            assert np.abs(np.diag(out).real - prune_matrix(params) @ l).max() < 1e-13
