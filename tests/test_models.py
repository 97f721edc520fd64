import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from qphylo import engine, linalg
from qphylo.channels import apply_channel
from qphylo.errors import ModelError
from qphylo.models import (_CONTROLLED_FLIPS, _FLIPS, FAMILIES, FAMILY, ModelParams,
                           _householder_with_first_column, binary_dilation, binary_from_branch_length,
                           bitflip_generator, bitflip_unitary, flip_weights, group_channel,
                           jc_from_branch_length, markov, prune_matrix, prune_operators, qw_dilation)
from qphylo.verify import random_params

from conftest import one_matrix, one_stack, random_density

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

    @pytest.mark.parametrize("params", ALL_FAMILY_DRAWS, ids=lambda params: params.family)
    def test_separate_builds_and_pickle_round_trips_compare_and_hash_equal(self, params):
        pi = None if params.pi is None else tuple(params.pi)
        again = ModelParams(params.family, params.a, b=params.b, c=params.c, pi=pi)
        for other in (again, pickle.loads(pickle.dumps(params))):
            assert other == params and params == other and hash(other) == hash(params)
            assert {params: "edge"}[other] == "edge"
        assert again != ModelParams(params.family, params.a / 2, b=params.b, c=params.c, pi=pi)

    def test_identity_weight_keeps_rounding_slack(self):
        params = ModelParams.k3(0.5, 0.5, 1e-13)
        assert 1.0 - sum((params.a, params.b, params.c)) < 0.0
        assert flip_weights(params).min() == 0.0


class TestWeights:
    def test_identity_limit(self):
        assert np.array_equal(flip_weights(ModelParams.jc(0.0)), [1.0, 0.0, 0.0, 0.0])

    def test_three_parameter_assignment(self):
        # XOR order: identity, 1 (x) X (b), X (x) 1 (a), X (x) X (c).
        w = flip_weights(ModelParams.k3(0.1, 0.2, 0.3))
        assert w[0] == pytest.approx(0.4)
        assert w[2] == 0.1
        assert w[1] == 0.2
        assert w[3] == 0.3

    def test_two_parameter_ties_single_flips(self):
        w = flip_weights(ModelParams.k2(0.1, 0.2))
        assert w[1] == w[3] == 0.2

    def test_felsenstein_has_no_flip_weights(self):
        for flip_form in (flip_weights, group_channel):
            with pytest.raises(ModelError, match="F is not a flip family"):
                flip_form(ALL_FAMILY_DRAWS[4])


def kron_flip(k, l):
    """X^k (x) X^l as a tensor product of Pauli X factors."""
    eye2 = linalg.identity(2)
    return linalg.kron(linalg.PAULI_X if k else eye2, linalg.PAULI_X if l else eye2)


def markov_weight_sum_oracle(params):
    """Entry-wise convex sum of Hadamard squares of the flip unitaries."""
    w = flip_weights(params)
    total = np.zeros((4, 4))
    for k in (0, 1):
        for l in (0, 1):
            u = kron_flip(k, l)
            total += w[2 * k + l] * (u * u.conj()).real
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
            assert m.min() >= 0.0
            assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-12
            if params.family != "F":
                assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12
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
        # Every flip keeps its operator: the three of weight 0 are zero matrices.
        ch = group_channel(ModelParams.jc(0.0))
        assert len(ch.operators) == 4
        assert np.array_equal(ch.operators[0], np.eye(4))
        assert not ch.operators[1:].any()

    def test_point_mass_maps_to_markov_column(self, rng):
        params = ModelParams.k3(0.1, 0.2, 0.3)
        out = apply_channel(group_channel(params), np.diag([1.0, 0, 0, 0]).astype(complex))
        assert np.abs(np.diag(out).real - markov(params)[:, 0]).max() < 1e-15

    def test_completeness_exact(self):
        for params in ALL_FAMILY_DRAWS[:4]:
            assert group_channel(params).completeness_defect() < 1e-15


class TestBinaryChannel:
    def test_limits(self):
        stay = group_channel(ModelParams.binary(0.0))
        assert len(stay.operators) == 2 and not stay.operators[1].any()
        flip = group_channel(ModelParams.binary(1.0))
        out = apply_channel(flip, np.diag([0.3, 0.7]).astype(complex))
        assert np.abs(np.diag(out).real - [0.7, 0.3]).max() == 0.0

    def test_point_mass(self):
        channel = group_channel(ModelParams.binary(0.3))
        out = apply_channel(channel, np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(np.diag(out).real - [0.7, 0.3]).max() < 1e-15

    def test_range_check(self):
        with pytest.raises(ModelError):
            group_channel(ModelParams.binary(1.2))


class TestQwDilation:
    def test_refuses_families_without_a_walk_dilation(self):
        with pytest.raises(ModelError, match="walk dilation needs a 4-state flip family, not B"):
            qw_dilation(ALL_FAMILY_DRAWS[3])
        with pytest.raises(ModelError, match="F is not a flip family"):
            qw_dilation(ALL_FAMILY_DRAWS[4])

    def test_identity_limit(self, rng):
        dil = qw_dilation(ModelParams.jc(0.0))
        rho = random_density(rng, 4)
        assert np.abs(dil.apply(rho) - rho).max() < 1e-14

    def test_coin_column_squares_to_weights(self):
        params = ModelParams.k3(0.1, 0.2, 0.3)
        # V (|00> (x) |0>) = sum_g u_g |g> (x) |g>: the coin column sits at rows 5g.
        col = qw_dilation(params).unitary[::5, 0]
        assert np.abs(np.abs(col) ** 2 - flip_weights(params)).max() < 1e-15

    def test_unitary_bytes_match_block_diag_form(self, rng):
        for _ in range(10):
            a, b, c = rng.dirichlet(np.ones(4))[:3]
            for params in (ModelParams.jc(a / 3.0), ModelParams.k2(a, b / 2.0), ModelParams.k3(a, b, c)):
                u_coin = _householder_with_first_column(np.sqrt(flip_weights(params))).astype(complex)
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
    # The names read the identity weight w_0 = 1 - a.
    def test_unit_weight_is_identity(self, rng):
        dil = binary_dilation(ModelParams.binary(0.0))
        assert np.abs(dil.unitary - np.eye(4)).max() == 0.0
        rho = random_density(rng, 2)
        assert np.abs(dil.apply(rho) - rho).max() < 1e-14

    def test_zero_weight_is_pure_flip(self, rng):
        dil = binary_dilation(ModelParams.binary(1.0))
        rho = random_density(rng, 2)
        flipped = linalg.adjoint_action(linalg.PAULI_X, rho)
        assert np.abs(dil.apply(rho) - flipped).max() < 1e-14

    def test_unitarity(self):
        v = binary_dilation(ModelParams.binary(0.3)).unitary
        assert linalg.max_abs(v @ v.conj().T - np.eye(4)) < 1e-14

    def test_traced_action_matches_channel(self, rng):
        params = ModelParams.binary(0.3)
        dil = binary_dilation(params)
        ch = group_channel(params)
        for _ in range(10):
            rho = random_density(rng, 2)
            assert np.abs(dil.apply(rho) - apply_channel(ch, rho)).max() < 1e-12

    def test_refuses_four_state_families(self):
        for params in ALL_FAMILY_DRAWS[:3] + ALL_FAMILY_DRAWS[4:]:
            with pytest.raises(ModelError, match="coin-flip dilation needs the 2-state flip family"):
                binary_dilation(params)


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
        ops = one_stack(ModelParams.binary(a))
        expected = [math.sqrt(1.0 - a) * linalg.identity(2), math.sqrt(a) * linalg.PAULI_X]
        assert len(ops) == 2
        assert all(np.array_equal(op, ref) for op, ref in zip(ops, expected))

    def test_binary_limits_keep_the_zero_operator(self):
        # K is fixed per family: the operator of weight 0 stays, as the zero matrix.
        stay, zero = one_stack(ModelParams.binary(0.0))
        assert np.array_equal(stay, linalg.identity(2)) and not zero.any()
        zero, flip = one_stack(ModelParams.binary(1.0))
        assert np.array_equal(flip, linalg.PAULI_X) and not zero.any()

    def test_binary_weight_outside_unit_interval_rejected(self):
        for a in (-1e-13, 1.0 + 1e-13):
            with pytest.raises(ModelError):
                one_stack(ModelParams.binary(a))

    def test_flip_families_resolve_identity(self):
        for params in FLIP_FAMILY_DRAWS:
            ops = one_stack(params)
            total = sum(op.conj().T @ op for op in ops)
            assert np.abs(total - np.eye(params.n_states)).max() < 1e-15

    def test_channel_operators_are_prune_operators(self):
        for params in FLIP_FAMILY_DRAWS:
            channel = group_channel(params)
            ops = one_stack(params)
            assert len(channel.operators) == len(ops)
            assert all(np.array_equal(c, op) for c, op in zip(channel.operators, ops))

    def test_squared_moduli_sum_to_prune_matrix(self):
        for params in ALL_FAMILY_DRAWS:
            ops = one_stack(params)
            total = sum(np.abs(np.asarray(op)) ** 2 for op in ops)
            assert np.abs(total - one_matrix(params)).max() < 1e-14

    def test_diagonal_action(self, rng):
        for params in ALL_FAMILY_DRAWS:
            n = params.n_states
            l = rng.random(n)
            out = sum(op @ np.diag(l).astype(complex) @ op.conj().T for op in one_stack(params))
            assert np.abs(np.diag(out).real - one_matrix(params) @ l).max() < 1e-13


PI = (0.1, 0.2, 0.3, 0.4)
# Values at weight 0, weight 1 and on the simplex boundary, where operators have weight 0.
BOUNDARY_VALUES = {
    "JC": (ModelParams.jc(0.0), ModelParams.jc(1.0 / 3.0)),
    "K2": (ModelParams.k2(0.0, 0.0), ModelParams.k2(1.0, 0.0), ModelParams.k2(0.0, 0.5),
           ModelParams.k2(0.5, 0.25)),
    "K3": (ModelParams.k3(0.0, 0.0, 0.0), ModelParams.k3(1.0, 0.0, 0.0), ModelParams.k3(0.0, 0.0, 1.0),
           ModelParams.k3(0.2, 0.3, 0.5), ModelParams.k3(0.1, 0.2, 0.7)),
    "B": (ModelParams.binary(0.0), ModelParams.binary(1.0)),
    "F": (ModelParams.felsenstein(0.0, PI), ModelParams.felsenstein(1.0, PI)),
}


@st.composite
def weight_batches(draw):
    """(family, values): 1-6 parameter values of one family, boundary and random ones mixed."""
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boundary = BOUNDARY_VALUES[family]
    return family, [boundary[rng.integers(len(boundary))] if rng.random() < 0.5
                    else random_params(rng, family) for _ in range(draw(st.integers(1, 6)))]


def batch_of(values):
    """The builders' (x, pi) for a list of one family's values: one weight row each, F's pi per row."""
    return [params.row for params in values], None if values[0].pi is None else [params.pi for params in values]


def explicit_form(ops, kind):
    """A transfer form as an explicit sum over the operators, in stack order, of A_k[a, i] conj(A_k[b, i])."""
    if kind == "adjoint":
        ops = ops.conj().transpose(0, 2, 1)
    k = ops.shape[1]
    total = np.zeros((k, k, k), dtype=ops.dtype)
    for op in ops:
        total += op[:, None, :] * op[None, :, :].conj()
    total = total.reshape(k * k, k)
    return total if kind == "adjoint" else total[engine._diagonal_first(k, 0)]


class TestBatchedBuilders:
    """prune_matrix, prune_operators and the engine's entries on (B, d) weight arrays."""

    @given(weight_batches())
    def test_each_row_of_a_batch_is_the_row_built_alone(self, case):
        family, values = case
        x, pi = batch_of(values)
        for build in (prune_matrix, prune_operators):
            rows = build(family, x, pi)
            for row, params in zip(rows, values):
                assert row.tobytes() == build(family, [params.row], params.pi)[0].tobytes()
        for kind in ("classical", "kraus", "adjoint"):
            entries, floors = engine._entries(family, x, pi, kind)
            assert not entries.flags.writeable
            for entry, floor, params in zip(entries, floors, values):
                (alone,), (alone_floor,) = engine._entries(family, [params.row], params.pi, kind)
                assert entry.tobytes() == alone.tobytes() and floor == alone_floor
                # Each row is stored as the engine's matmuls read it: the adjoint form transposed.
                assert entry.flags.f_contiguous if kind == "adjoint" else entry.flags.c_contiguous

    @given(weight_batches())
    def test_w_is_the_xor_gather_or_the_f_formula_transposed(self, case):
        family, values = case
        for w, params in zip(prune_matrix(family, *batch_of(values)), values):
            if family == "F":
                m = params.a * np.eye(4) + (1.0 - params.a) * np.outer(params.pi, np.ones(4))
            else:
                weights = flip_weights(params)
                m = weights[np.bitwise_xor.outer(np.arange(weights.size), np.arange(weights.size))]
            assert w.flags.c_contiguous and w.tobytes() == m.T.copy().tobytes()
            assert markov(params).tobytes() == m.tobytes()

    @given(weight_batches())
    def test_forms_are_the_explicit_per_operator_sums(self, case):
        # Real stacks and the same stacks cast to complex128 go through the one form function.
        family, values = case
        stacks = prune_operators(family, *batch_of(values))
        k = FAMILY[family].n_states
        assert stacks.shape == (len(values), 17 if family == "F" else k, k, k)
        for cast in (stacks, stacks.astype(complex)):
            for kind in ("kraus", "adjoint"):
                forms = engine._stack_form(cast, kind)
                assert forms.dtype == cast.dtype
                for form, ops in zip(forms, cast):
                    assert form.tobytes() == explicit_form(ops, kind).tobytes()
