import contextlib
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qphylo import engine, linalg
from qphylo.channels import KrausChannel, apply_channel, collective_diagonalizer, control_not
from qphylo.engine import (ENGINES, MAX_TENSOR_BYTES, _adjoint_state, _classical_node,
                           _diagonal_first, _dual_root, _node_buffers, _pinch_weights,
                           _quantum_node, _shift_trace, _unshift_source, alignment_loglik,
                           simulate_tree)
from qphylo.errors import ModelError, TaxaMismatchError, ZeroLikelihoodError
from qphylo.models import FAMILIES, ModelParams, markov
from qphylo.optimize import (OptimizationProblem, maximize_loglik, tree_with_edge_params,
                             tree_with_shared_params)
from qphylo.treeio import BINARY, DNA, Alignment, emit_newick, parse_newick
from qphylo.verify import _embed_stack, random_instance, random_params

from conftest import one_matrix, one_stack, random_density, random_unitary

CHERRY = parse_newick("(A:0.1,B:0.1);")
# Leaf likelihood vectors as alignment_loglik builds them: row x indicates character x.
A, C = np.eye(4)[:2]
def caterpillar(n):
    return parse_newick("(" * (n - 1) + "t0:0.1" + "".join(f",t{i}:0.1):0.1" for i in range(1, n)) + ";")


CATERPILLAR_20 = caterpillar(20)
# The kinds of engine._edge_ops entry: W, and the Kraus and adjoint families' transfer forms.
KINDS = ("classical", "kraus", "adjoint")


def chain_enumeration_oracle(tree):
    """Pattern distribution by brute-force summation over ancestral states."""
    m = tree.n_states

    def leaf_distribution(node, state):
        if node.is_leaf:
            out = np.zeros(m)
            out[state] = 1.0
            return out.reshape([m] + [1] * 0)
        left, right = node.children
        ml, mr = markov(left.params), markov(right.params)
        shapes = []
        for child, mat in ((left, ml), (right, mr)):
            acc = None
            for child_state in range(m):
                term = mat[child_state, state] * leaf_distribution(child, child_state)
                acc = term if acc is None else acc + term
            shapes.append(acc)
        la, ra = shapes
        return np.multiply.outer(la, ra)

    total = None
    for state in range(m):
        term = tree.pi[state] * leaf_distribution(tree.root, state)
        total = term if total is None else total + term
    return total


class TestSimulateTree:
    def test_frozen_cherry_is_diagonal_quarter(self):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.0))
        t = simulate_tree(tree)
        assert np.abs(t.values - np.diag(np.full(4, 0.25))).max() < 1e-15

    def test_cherry_same_character_probability(self):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.1))
        t = simulate_tree(tree)
        # Summing over the root: (0.7^2 + 3 * 0.1^2) / 4
        assert t.values[0, 0] == pytest.approx(0.13, abs=1e-14)

    def test_matches_chain_enumeration(self, rng):
        for family in ("JC", "K2", "K3", "B", "F"):
            tree, _ = random_instance(rng, 4, family)
            assert np.abs(simulate_tree(tree).values - chain_enumeration_oracle(tree)).max() < 1e-12

    def test_mass_is_one_for_eight_leaves(self, rng):
        tree, _ = random_instance(rng, 8, "K3")
        assert abs(simulate_tree(tree).values.sum() - 1.0) < 1e-12

    def test_oversized_tensor_refused_before_allocating(self):
        assert 4 ** 20 * 8 > MAX_TENSOR_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match=r"4\*\*20 entries \(8796093022208 bytes\)"):
                simulate_tree(CATERPILLAR_20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_counts_twice_the_tensor(self, monkeypatch):
        tree = caterpillar(9)
        monkeypatch.setattr(engine, "MAX_TENSOR_BYTES", 2 * 4 ** 9 * 8)
        simulate_tree(tree)
        monkeypatch.setattr(engine, "MAX_TENSOR_BYTES", 2 * 4 ** 9 * 8 - 1)
        with pytest.raises(ModelError, match=r"4\*\*9 entries \(2097152 bytes\); building it takes twice"):
            simulate_tree(tree)
        monkeypatch.undo()
        with pytest.raises(ModelError, match=r"2\*\*27 entries"):
            simulate_tree(tree_with_shared_params(caterpillar(27), ModelParams.binary(0.1)))

    @pytest.mark.parametrize("tree", [
        caterpillar(9),
        parse_newick("(((a:0.1,b:0.2):0.1,(c:0.1,d:0.3):0.2):0.1,((e:0.1,f:0.1):0.1,(g:0.2,h:0.1):0.1):0.1);"),
        tree_with_shared_params(CATERPILLAR_20, ModelParams.binary(0.1)),
    ], ids=["caterpillar-9", "balanced-8", "binary-caterpillar-20"])
    def test_build_peaks_at_twice_the_tensor(self, tree):
        # Each gate allocates only its output, so the input and output of the
        # last evolution are the peak; MAX_TENSOR_BYTES counts both.
        tracemalloc.start()
        try:
            tensor = simulate_tree(tree).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * tensor.nbytes + (64 << 10)

    def test_budget_counts_states_not_leaves(self):
        tree = tree_with_shared_params(CATERPILLAR_20, ModelParams.binary(0.1))
        assert simulate_tree(tree).values.shape == (2,) * 20


def classical_pair(lb, lc, mb, mc):
    """One classical node step at P = 1, W = M^T per edge."""
    return _classical_node(lb[:, None], lc[:, None], mb.T, mc.T)[:, 0]


def jc_unitary(a):
    """A single unitary with |U|^2 = markov(JC(a)), for a <= 1/4.

    U = sqrt(1-3a) 1 + sqrt(a) e^{i theta} (X_1 + X_2 + X_3), where the three
    flips sum to J - 1 (J all ones). Since (J - 1)^2 = 3 + 2 (J - 1), U U^+ = 1
    exactly when cos(theta) = -sqrt(a / (1-3a)).
    """
    theta = math.acos(-math.sqrt(a / (1.0 - 3.0 * a)))
    flips = np.ones((4, 4)) - np.eye(4)
    return math.sqrt(1.0 - 3.0 * a) * np.eye(4) + math.sqrt(a) * np.exp(1j * theta) * flips


def kraus_entry(ops, kind="kraus"):
    """The ``_edge_ops`` entry of ``kind`` for an edge whose Kraus stack is ``ops``: the
    engine's own form function, ``engine._stack_form``, on a batch of one."""
    return engine._stack_form(ops[None], kind)[0]


def edge_entry(params, kind):
    """The ``_edge_ops`` entry of ``kind`` for one parameter value, built off the cache."""
    return engine._edge_entries((params,), kind)[0][0]


def natural_rows(rows, d, first):
    """Rows stored in ``_diagonal_first(d, first)`` order, put back in natural order."""
    return rows[np.argsort(_diagonal_first(d, first))]


def quantum_pair(lb, lc, ub, uc):
    """One pruning-circuit node step at P = 1, one unitary per edge."""
    work = np.zeros((3, (len(lb) + 1) ** 2, 1), dtype=complex)
    return _quantum_node(lb[:, None], lc[:, None], kraus_entry(ub[None]), kraus_entry(uc[None]),
                         _node_buffers(work))[:, 0]


JC_WEIGHTS = (0.0, 0.05, 0.1, 0.25)


@pytest.mark.parametrize("a", JC_WEIGHTS)
def test_jc_unitary_is_unitary_with_jc_hadamard_square(a):
    u = jc_unitary(a)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-15
    assert np.abs(np.abs(u) ** 2 - markov(ModelParams.jc(a))).max() < 1e-15


class TestClassicalPrune:
    def test_zero_length_edges_pass_through(self):
        assert np.array_equal(classical_pair(A, A, np.eye(4), np.eye(4)), A)

    def test_frozen_jc_example(self):
        m = markov(ModelParams.jc(0.1))
        out = classical_pair(A, C, m, m)
        assert np.abs(out - [0.07, 0.07, 0.01, 0.01]).max() < 1e-15

    def test_incompatible_observations_vanish(self):
        out = classical_pair(A, C, np.eye(4), np.eye(4))
        assert np.abs(out).max() == 0.0


class TestQuantumPrune:
    def test_identity_edges_give_elementwise_product(self, rng):
        lb, lc = rng.random(4), rng.random(4)
        out = quantum_pair(lb, lc, np.eye(4), np.eye(4))
        assert np.abs(out - lb * lc).max() < 1e-13

    def test_frozen_jc_example(self):
        u = jc_unitary(0.1)
        out = quantum_pair(A, C, u, u)
        assert np.abs(out - [0.07, 0.07, 0.01, 0.01]).max() < 1e-10

    def test_matches_classical_on_jc_edges(self, rng):
        for a in JC_WEIGHTS:
            u, m = jc_unitary(a), markov(ModelParams.jc(a))
            for _ in range(20):
                lb, lc = rng.random(4), rng.random(4)
                assert np.abs(quantum_pair(lb, lc, u, u) - classical_pair(lb, lc, m, m)).max() < 1e-13

    def test_matches_classical_on_random_unistochastic_edges(self, rng):
        worst = 0.0
        for _ in range(100):
            ub, uc = random_unitary(rng, 4), random_unitary(rng, 4)
            wb, wc = np.abs(ub) ** 2, np.abs(uc) ** 2
            lb, lc = rng.random(4), rng.random(4)
            quantum = quantum_pair(lb, lc, ub, uc)
            classical = classical_pair(lb, lc, wb.T, wc.T)
            worst = max(worst, np.abs(quantum - classical).max())
        assert worst < 1e-10

    def test_depends_only_on_hadamard_square(self, rng):
        u = random_unitary(rng, 4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, 4)))
        u_alt = np.diag(phases[0]) @ u @ np.diag(phases[1])
        lb, lc = rng.random(4), rng.random(4)
        a = quantum_pair(lb, lc, u, u)
        b = quantum_pair(lb, lc, u_alt, u_alt)
        assert np.abs(a - b).max() < 1e-12


class TestDualPrune:
    def test_identity_edges_pinch_onto_left_support(self, rng):
        lc = rng.random(4)
        pi = rng.dirichlet(np.ones(4))
        eye, eye_adjoint = kraus_entry(np.eye(4)[None]), kraus_entry(np.eye(4)[None], "adjoint")
        q, nu = _pinch_weights(A[:, None], eye)
        assert nu[0] == 1.0
        assert np.abs(q[:, 0] - [1.0, 0.0, 0.0, 0.0]).max() < 1e-14
        values, _ = _dual_root(A[:, None], lc[:, None], eye, eye_adjoint, pi)
        assert abs(values[0] - lc[0] * pi[0]) < 1e-14

    def test_frozen_jc_cherry_recovers_circuit_result(self):
        # A point-mass root reads off one entry of the parent operator nu * E_B(L_C).
        u = jc_unitary(0.1)[None]
        edge, adjoint = kraus_entry(u), kraus_entry(u, "adjoint")
        out = [_dual_root(A[:, None], C[:, None], edge, adjoint, root)[0][0] for root in np.eye(4)]
        assert np.abs(np.array(out) - [0.07, 0.07, 0.01, 0.01]).max() < 1e-10

    def test_jc_cherry_averages_classical_node_over_root(self, rng):
        for a in JC_WEIGHTS:
            u, m = jc_unitary(a)[None], markov(ModelParams.jc(a))
            edge, adjoint = kraus_entry(u), kraus_entry(u, "adjoint")
            for _ in range(20):
                lb, lc = rng.random(4), rng.random(4)
                pi = rng.dirichlet(np.ones(4))
                value = _dual_root(lb[:, None], lc[:, None], edge, adjoint, pi)[0][0]
                assert abs(value - pi @ classical_pair(lb, lc, m, m)) < 1e-13

    def test_pinch_weights_normalize_for_doubly_stochastic_edges(self, rng):
        for _ in range(100):
            ub = random_unitary(rng, 4)
            lb = rng.random(4)
            q = np.diag(ub @ np.diag(lb).astype(complex) @ ub.conj().T).real / lb.sum()
            assert abs(q.sum() - 1.0) < 1e-12

    def test_adjoint_identity(self, rng):
        for _ in range(20):
            uc = random_unitary(rng, 4)
            lb, lc = rng.random(4), rng.random(4)
            nu = lb.sum()
            ub = random_unitary(rng, 4)
            q = np.diag(ub @ np.diag(lb).astype(complex) @ ub.conj().T).real / nu
            rho = random_density(rng, 4)
            pinch, _ = _pinch_weights(lb[:, None], kraus_entry(ub[None]))
            evolved = (natural_rows(kraus_entry(uc[None]), 4, 0) @ lc[:, None])[::5].real
            forward = (pinch * evolved)[:, 0]
            lhs = float(forward @ np.diag(rho).real)
            adjoint = uc.conj().T @ np.diag(q * np.diag(rho)) @ uc
            rhs = np.trace(np.diag(lc).astype(complex) @ adjoint).real
            assert abs(lhs - rhs) < 1e-12


def dense_channel(stack) -> KrausChannel:
    """The circuit's edge gate for a (K, k, k) stack: the stack with a zero null row and column."""
    return KrausChannel(_embed_stack(np.asarray(stack, dtype=complex)), trace_preserving=False)


# Edge stacks for the node pins: one random complex unitary per edge at n = 3 and 5, and a
# random draw of every built-in family.
NODE_STACKS = [
    *(("unitary", n, seed) for n in (3, 5) for seed in range(3)),
    *(("family", family, seed) for family in FAMILIES for seed in range(2)),
]


def node_stacks(kind, which, seed):
    """The two child edges' Kraus stacks for one ``NODE_STACKS`` entry."""
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        return [random_unitary(rng, which - 1)[None] for _ in range(2)]
    return [one_stack(random_params(rng, which)) for _ in range(2)]


class TestSparseGates:
    """Each gate of the batched pruning circuit, read from the node's own buffers,
    against its dense operator on the null-extended space."""

    @pytest.mark.parametrize("kind, which, seed", NODE_STACKS)
    def test_node_buffers_hold_each_dense_gate(self, kind, which, seed):
        stack_b, stack_c = node_stacks(kind, which, seed)
        k, p = stack_b.shape[1], 4
        n = k + 1
        rng = np.random.default_rng(100 + seed)
        lb, lc = rng.random((k, p)), rng.random((k, p))
        tb, tc = kraus_entry(stack_b), kraus_entry(stack_c)
        work = np.zeros((3, n * n, p), dtype=np.result_type(tb, tc))
        buffers = _node_buffers(work)
        rho_b, rho_c, *_, pinch, _ = buffers
        out = _quantum_node(lb, lc, tb, tc, buffers)
        # Planes 0 and 1 hold each block diagonal-first, plane 2 its |cc> rows first.
        rho_b, rho_c, pinch = natural_rows(rho_b, k, 0), natural_rows(rho_c, k, 0), natural_rows(pinch, n, 1)
        assert out.shape == (k, p)
        kk_rows = (n + 1) * np.arange(n)
        unshift = control_not(n).conj().T
        for i in range(p):
            # Kraus propagation: the dense gate leaves the null row and column exactly zero,
            # so the node keeps only the non-null block.
            propagated = []
            for stack, leaf, rho in ((stack_b, lb, rho_b), (stack_c, lc, rho_c)):
                dense = apply_channel(dense_channel(stack), np.diag(np.concatenate([[0.0], leaf[:, i]])))
                assert not dense[0].any() and not dense[:, 0].any()
                block = rho[:, i].reshape(k, k)
                assert np.abs(block - dense[1:, 1:]).max() < 1e-14
                propagated.append(_embed_stack(block[None])[0])
            # Collective pinch of the node's propagated operators.
            pinched = apply_channel(collective_diagonalizer(n), linalg.kron(*propagated))
            assert np.abs(pinched - np.diag(pinch[:, i])).max() < 1e-15
            assert not np.delete(pinch[:, i], kk_rows).any()
            # Inverse control-shift and partial trace of the node's pinch.
            shifted = unshift @ np.diag(pinch[:, i]) @ unshift.conj().T
            traced = linalg.partial_trace(shifted, [n, n], traced=2)
            assert np.abs(traced - np.diag(np.diagonal(traced))).max() == 0.0
            assert traced[0, 0] == 0.0
            assert np.abs(out[:, i] - np.diagonal(traced)[1:]).max() == 0.0

    def test_kraus_propagation_matches_apply_channel(self, rng):
        for family in ("JC", "K2", "K3", "B", "F"):
            for _ in range(5):
                params = random_params(rng, family)
                k = params.n_states
                channel = dense_channel(one_stack(params))
                diags = rng.random((3, k))
                rows = natural_rows(edge_entry(params, "kraus"), k, 0)
                batched = (rows @ diags.T).reshape(k, k, 3)
                for d, block in zip(diags, batched.transpose(2, 0, 1)):
                    dense = apply_channel(channel, np.diag(np.concatenate([[0.0], d])))
                    assert not dense[0].any() and not dense[:, 0].any()
                    assert np.abs(block - dense[1:, 1:]).max() < 1e-14

    def test_permutation_matches_control_shift_conjugation(self, rng):
        for n in (2, 3, 5):
            ucn_dag = control_not(n).conj().T
            diags = rng.random((4, n * n)) + 1j * rng.random((4, n * n))
            permuted = diags.T[_unshift_source(n)]
            for d, out in zip(diags, permuted.T):
                dense = ucn_dag @ np.diag(d) @ ucn_dag.conj().T
                assert np.abs(dense - np.diag(out)).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_shift_trace_is_the_dense_shift_then_trace(self, rng, n, dtype):
        matrix = _shift_trace(n, np.dtype(dtype))
        assert matrix is _shift_trace(n, np.dtype(dtype))
        assert matrix.dtype == dtype and matrix.shape == (n - 1, n * n)
        assert not matrix.flags.writeable
        # The columns follow plane 2's order: the |cc> rows first, then the rest.
        order = _diagonal_first(n, 1)
        assert order == [(n + 1) * c for c in range(1, n)] + [
            row for row in range(n * n) if row % (n + 1) or row == 0]
        natural = natural_rows(matrix.T, n, 1).T
        # Row i - 1 holds a 1 at the source of each |i, j> the shift fills, and nothing else.
        sources = _unshift_source(n)[n:].reshape(n - 1, n)
        assert np.array_equal(np.take_along_axis(natural, sources, axis=1), np.ones((n - 1, n)))
        assert matrix.sum() == (n - 1) * n
        ucn_dag = control_not(n).conj().T

        def dense(d):
            shifted = ucn_dag @ np.diag(d) @ ucn_dag.conj().T
            return np.diagonal(linalg.partial_trace(shifted, [n, n], traced=2))[1:]

        # The dense gates applied to each basis diagonal give the matrix column by column.
        assert np.abs(np.array([dense(e) for e in np.eye(n * n)]).T - natural).max() == 0.0
        # Integer entries sum exactly in any order; a pinch leaves one non-zero term per entry.
        diags = rng.integers(0, 9, (4, n * n)).astype(dtype)
        pinches = np.zeros((4, n * n), dtype=dtype)
        pinches[:, (n + 1) * np.arange(1, n)] = rng.random((4, n - 1))
        if dtype is np.complex128:
            diags += 1j * rng.integers(0, 9, (4, n * n))
            pinches[:, (n + 1) * np.arange(1, n)] += 1j * rng.random((4, n - 1))
        for d in (*diags, *pinches):
            assert np.abs(matrix @ d[order] - dense(d)).max() == 0.0

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_pinch_operands_are_contiguous_views_of_the_work_array(self, k, dtype):
        # The diagonal rows of planes 0 and 1 and the |cc> rows of plane 2 are each plane's
        # leading k rows, so the pinch product runs on three C-contiguous (k, P) blocks.
        work = np.zeros((3, (k + 1) ** 2, 300), dtype=dtype)
        _, _, diag_b, diag_c, pinch_rows, *_ = _node_buffers(work)
        for view, plane in ((diag_b, 0), (diag_c, 1), (pinch_rows, 2)):
            assert view.shape == (k, 300) and view.dtype == dtype and view.flags.c_contiguous
            assert np.shares_memory(view, work[plane])
            assert view.__array_interface__["data"][0] == work[plane].__array_interface__["data"][0]

    @pytest.mark.parametrize("complex_edge", [False, True], ids=["mixed", "complex-edge"])
    def test_whole_tree_outputs_match_the_gather_and_reshape_trace_bytewise(
            self, monkeypatch, complex_edge):
        tree, aln = wide_instance(np.random.default_rng(2700))
        assert len(aln.site_patterns()[0]) == 300
        if complex_edge:
            # The first JC edge's unitary with a phase: the call runs in complex128.
            slot = next(slot for slot, node in enumerate(tree.nodes)
                        if slot and node.params.family == "JC")
            monkeypatch.setattr(engine, "_edge_ops",
                                unitary_edge_ops(engine._edge_ops, tree, slot))
        kraus, _ = engine._edge_ops(tree.edge_params, "kraus")
        assert np.result_type(*kraus) == (complex if complex_edge else float)
        production = [alignment_loglik(tree, aln, engine=e) for e in ("quantum", "dual")]
        monkeypatch.setattr(engine, "_quantum_node", reference_node)
        reference = [alignment_loglik(tree, aln, engine=e) for e in ("quantum", "dual")]
        for new, old in zip(production, reference):
            assert new.log.tobytes() == old.log.tobytes()
            assert new.likelihood.tobytes() == old.likelihood.tobytes()
        assert production[1].nu.tobytes() == reference[1].nu.tobytes()

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_reshape_trace_is_bitwise_the_same_at_every_placement(self, rng, is_complex):
        # Summing a contiguous length-n axis let the memory placement pick the
        # summation order; summing n rows of P patterns adds them in one order.
        k, p = 4, 300
        stacks = [one_stack(random_params(rng, "F")) for _ in range(2)]
        if is_complex:
            stacks = [random_unitary(rng, k)[None] for _ in range(2)]
        tb, tc = (kraus_entry(stack) for stack in stacks)
        lb, lc = rng.random((k, p)), rng.random((k, p))
        n, dtype = k + 1, np.result_type(tb, tc)
        buffer = np.empty(3 * n * n * p + 8, dtype=dtype)
        expected = None
        for offset in range(9):
            work = buffer[offset:offset + 3 * n * n * p].reshape(3, n * n, p)
            work[...] = 0.0
            out = _quantum_node(lb, lc, tb, tc, _node_buffers(work))
            rows = natural_rows(work[2], n, 1)[_unshift_source(n)[n:]].reshape(k, n, p)
            in_order = rows[:, 0]
            for j in range(1, n):
                in_order = in_order + rows[:, j]
            assert out.tobytes() == in_order.real.tobytes()
            expected = out.tobytes() if expected is None else expected
            assert out.tobytes() == expected


def reference_node(lb, lc, tb, tc, buffers):
    """``_quantum_node`` with the inverse control-shift as a gather by ``_unshift_source`` and
    the partial trace as a reshape-sum, on the production node's own buffers."""
    rho_b, rho_c, diag_b, diag_c, pinch_rows, pinch, _ = buffers
    np.matmul(tb, lb, out=rho_b)
    np.matmul(tc, lc, out=rho_c)
    np.multiply(diag_b, diag_c, out=pinch_rows)
    k, p = lb.shape
    natural = natural_rows(pinch, k + 1, 1)
    return natural[_unshift_source(k + 1)[k + 1:]].reshape(k, k + 1, p).sum(axis=1).real


class TestDualRoot:
    def test_adjoint_step_matches_dense_reference(self, rng):
        for _ in range(20):
            ub, uc = random_unitary(rng, 4), random_unitary(rng, 4)
            lb, lc = rng.random((3, 4)), rng.random((3, 4))
            pi = rng.dirichlet(np.ones(4))
            tb, adjoint = kraus_entry(ub[None]), kraus_entry(uc[None], "adjoint")
            q, nu = _pinch_weights(lb.T, tb)
            back = _adjoint_state(q, pi, adjoint)
            values, nus = _dual_root(lb.T, lc.T, tb, adjoint, pi)
            assert q.shape == (4, 3) and back.shape == (4, 4, 3)
            adjoint_gate = dense_channel(uc.conj().T[None])
            for i in range(3):
                forward = apply_channel(dense_channel(ub[None]), np.diag(np.concatenate([[0.0], lb[i]])))
                assert np.abs(q[:, i] - np.diagonal(forward)[1:].real / nu[i]).max() < 1e-14
                # The adjoint gate leaves the null row and column exactly zero, so the
                # state is its non-null block.
                dense = apply_channel(adjoint_gate, np.diag(np.concatenate([[0.0], q[:, i] * pi])))
                assert not dense[0].any() and not dense[:, 0].any()
                assert np.abs(back[:, :, i] - dense[1:, 1:]).max() < 1e-14
                expected = nu[i] * np.trace(np.diag(lc[i]) @ dense[1:, 1:]).real
                assert abs(values[i] - expected) < 1e-14
                assert nus[i] == lb[i].sum()

    def test_kraus_families_match_classical_root(self, rng):
        for family in ("JC", "K2", "K3", "B", "F"):
            pb, pc = random_params(rng, family), random_params(rng, family)
            k = pb.n_states
            lb, lc = rng.random((5, k)), rng.random((5, k))
            pi = rng.dirichlet(np.ones(k))
            values, _ = _dual_root(lb.T, lc.T, edge_entry(pb, "kraus"),
                                   edge_entry(pc, "adjoint"), pi)
            classical = ((lb @ one_matrix(pb).T) * (lc @ one_matrix(pc).T)) @ pi
            assert np.abs(values - classical).max() < 1e-14

    def test_edge_ops_build_only_what_the_engine_reads(self, rng, builds):
        tree, aln = random_instance(rng, 4, "K3", n_sites=3)
        alignment_loglik(tree, aln, engine="classical")
        assert builds == {"prune_operators": 0, "prune_matrix": 6}
        alignment_loglik(tree, aln, engine="quantum")
        assert builds == {"prune_operators": 6, "prune_matrix": 6}
        params = tree.nodes[1].params
        (w,), _ = engine._edge_ops((params,), "classical")
        (kraus,), _ = engine._edge_ops((params,), "kraus")
        assert np.array_equal(w, one_matrix(params))
        assert kraus.shape == (16, 4)


@pytest.fixture
def builds(monkeypatch):
    """A cold edge-operator cache, and the rows the engine's builders build, counted by name.

    A call builds one batch of rows, one per distinct value of a family, so the
    counts are the per-value builds, however the values are batched.
    """
    engine._edge_ops.cache_clear()
    counts = dict.fromkeys(("prune_operators", "prune_matrix"), 0)
    for name in counts:
        def counted(family, x, pi=None, _build=getattr(engine, name), _name=name):
            counts[_name] += len(x)
            return _build(family, x, pi)
        monkeypatch.setattr(engine, name, counted)
    yield counts
    engine._edge_ops.cache_clear()


class TestEdgeCache:
    @pytest.mark.parametrize("n_leaves", [5, 130])
    def test_second_call_builds_nothing(self, rng, builds, n_leaves):
        # 130 leaves give 258 distinct edges, more than any per-edge cache of 256 would hold.
        tree, aln = random_instance(rng, n_leaves, "K3", n_sites=4)
        n_edges = 2 * n_leaves - 2
        first = [alignment_loglik(tree, aln, engine=e) for e in ENGINES]
        # One Kraus family per edge, and the dual root's adjoint family.
        assert builds == {"prune_operators": n_edges + 1, "prune_matrix": n_edges}
        again = parse_newick(emit_newick(tree))
        second = [alignment_loglik(again, aln, engine=e) for e in ENGINES]
        assert builds == {"prune_operators": n_edges + 1, "prune_matrix": n_edges}
        for a, b in zip(first, second):
            assert a.log.tobytes() == b.log.tobytes()

    def test_a_cold_build_makes_one_batch_per_family_and_kind(self, rng, monkeypatch):
        # Every distinct value of a family is one row of that family's batch: one builder
        # call and, for a transfer form, one einsum per (family, kind) group.
        families = ("JC", "K2", "K3", "F")
        tree, aln = random_instance(rng, 16, "JC", n_sites=5)
        tree = tree_with_edge_params(tree, (random_params(rng, families[slot % 4])
                                            for slot in range(1, len(tree.nodes))))
        calls, einsum = [], np.einsum
        for name in ("prune_operators", "prune_matrix"):
            def recorded(family, x, pi=None, _build=getattr(engine, name), _name=name):
                calls.append((_name, family, len(x)))
                return _build(family, x, pi)
            monkeypatch.setattr(engine, name, recorded)

        def counted_einsum(subscripts, *operands, **kwargs):
            calls.append(("einsum", subscripts))
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(engine.np, "einsum", counted_einsum)
        engine._edge_ops.cache_clear()
        try:
            for e in ENGINES:
                alignment_loglik(tree, aln, engine=e)
        finally:
            engine._edge_ops.cache_clear()
        rows = {family: sum(params.family == family for params in set(tree.edge_params))
                for family in families}
        right = tree.nodes[tree.kids[0][1]].params.family
        forms = [("einsum", "nkai,nkbi->nabi")] * 5  # the four families' Kraus forms, the root adjoint
        assert sorted(call for call in calls if call[1] != "ip,iip->p") == sorted(
            [("prune_matrix", family, n) for family, n in rows.items()]
            + [("prune_operators", family, n) for family, n in rows.items()]
            + [("prune_operators", right, 1)] + forms)

    def test_shared_tree_builds_one_entry_per_kind(self, rng, builds):
        tree = tree_with_shared_params(parse_newick("((A:1,B:1):1,(C:1,D:1):1);"),
                                       ModelParams.jc(0.1))
        aln = Alignment(taxa=tree.leaf_names, data=rng.integers(0, 4, (4, 6)), alphabet=DNA)
        for e in ENGINES:
            alignment_loglik(tree, aln, engine=e)
        assert builds == {"prune_operators": 2, "prune_matrix": 1}
        assert engine._edge_ops.cache_info().currsize == 3

    def test_dual_after_quantum_builds_only_its_root_adjoint(self, rng, builds):
        tree, aln = random_instance(rng, 4, "F", n_sites=3)
        alignment_loglik(tree, aln, engine="quantum")
        assert builds == {"prune_operators": 6, "prune_matrix": 0}
        alignment_loglik(tree, aln, engine="dual")
        assert builds == {"prune_operators": 7, "prune_matrix": 0}
        alignment_loglik(tree, aln, engine="dual")
        assert builds == {"prune_operators": 7, "prune_matrix": 0}

    def test_two_trees_under_every_engine_stay_cached(self, rng, builds):
        # Three kinds for each of two trees: six entries, all kept.
        instances = [random_instance(rng, 4, "K2", n_sites=3) for _ in range(2)]
        for tree, aln in instances:
            for e in ENGINES:
                alignment_loglik(tree, aln, engine=e)
        cold = dict(builds)
        for tree, aln in instances:
            for e in ENGINES:
                alignment_loglik(tree, aln, engine=e)
        assert builds == cold == {"prune_operators": 14, "prune_matrix": 12}

    @pytest.mark.parametrize("per_edge", (False, True))
    @pytest.mark.parametrize("fit_engine", ENGINES)
    def test_a_fit_leaves_the_callers_tree_warm(self, rng, builds, fit_engine, per_edge):
        # The EM loop builds its points' entries off the cache and reports its own value at
        # the kept point, so a fit never looks the cache up.
        tree, aln = random_instance(rng, 4, "JC", n_sites=40)
        for e in ENGINES:
            alignment_loglik(tree, aln, engine=e)
        before = engine._edge_ops.cache_info()
        maximize_loglik(OptimizationProblem(tree=tree, alignment=aln, family="JC",
                                            engine=fit_engine, per_edge=per_edge))
        info = engine._edge_ops.cache_info()
        assert info == before
        fitted = dict(builds)
        for e in ENGINES:
            alignment_loglik(tree, aln, engine=e)
        assert builds == fitted

    def test_cached_arrays_are_read_only(self, rng, builds, monkeypatch):
        real = ModelParams.felsenstein(0.3, (0.1, 0.2, 0.3, 0.4))
        entries = [engine._edge_ops((real,), kind) for kind in KINDS]
        unitary = random_unitary(rng, 4)[None]
        monkeypatch.setattr(engine, "prune_operators", lambda family, x, pi=None: unitary[None])
        entries += [engine._edge_ops((ModelParams.jc(0.2),), kind) for kind in KINDS[1:]]
        dtypes = [np.float64] * 3 + [np.complex128] * 2
        for ((array,), _), dtype in zip(entries, dtypes):
            assert type(array) is np.ndarray and array.dtype == dtype
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.sampled_from(FAMILIES))
    def test_warm_cache_reports_are_byte_identical(self, seed, n_leaves, family):
        tree, aln = random_instance(np.random.default_rng(seed), n_leaves, family, n_sites=5)
        engine._edge_ops.cache_clear()
        cold = [json.dumps(alignment_loglik(tree, aln, engine=e).to_document()) for e in ENGINES]
        warm = [json.dumps(alignment_loglik(tree, aln, engine=e).to_document())
                for e in reversed(ENGINES)]
        assert cold == warm[::-1]


class TestFloors:
    """Each edge entry's floor: the least value a node reads of it, clamped at 0.0."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_floor_is_the_clamped_least_value_a_node_reads(self, family):
        rng = np.random.default_rng(31)
        for params in [random_params(rng, family) for _ in range(3)] + list(BOUNDARY_PARAMS):
            if params.family != family:
                continue
            k = params.n_states
            (w,), (w_floor,) = engine._edge_entries((params,), "classical")
            (form,), (form_floor,) = engine._edge_entries((params,), "kraus")
            (_,), (adjoint_floor,) = engine._edge_entries((params,), "adjoint")
            # A classical node reads all of W; a Kraus node the real diagonal of each block.
            diagonal = natural_rows(form, k, 0).reshape(k, k, k)[np.arange(k), np.arange(k)].real
            assert type(w_floor) is float and w_floor == max(0.0, w.min())
            assert type(form_floor) is float and form_floor == max(0.0, diagonal.min())
            assert adjoint_floor == 0.0
            # Row (a, a) of the form holds the probabilities of column a of W.
            assert form_floor == pytest.approx(w_floor, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("params", [ModelParams.jc(0.0), ModelParams.binary(0.0),
                                        ModelParams("K3", 0.0, 0.0, 0.0)], ids=["JC", "B", "K3"])
    def test_a_frozen_edge_has_floor_zero(self, params):
        for kind in KINDS:
            assert engine._edge_entries((params,), kind)[1] == (0.0,)

    def test_a_rounding_negative_entry_gives_floor_zero(self, monkeypatch):
        # Unclamped, two such floors would multiply to a positive bound.
        params = ModelParams.binary(0.1)
        monkeypatch.setattr(engine, "prune_matrix",
                            lambda family, x, pi=None: np.array([[[1.0, -1e-17], [0.1, 0.9]]]))
        assert engine._edge_entries((params,), "classical")[1] == (0.0,)
        # A transfer form's off-diagonal rows, after its k diagonal rows, are not read.
        form = np.array([[0.9, 0.2], [0.2, 0.8], [-0.3, 0.1], [0.1, -0.3]])
        assert engine._floor(form[None], "kraus") == [0.2]
        form[1, 0] = -1e-17
        assert engine._floor(form[None], "kraus") == [0.0]
        assert engine._floor(form[None].astype(complex) + 1j, "kraus") == [0.0]


def complex_edge_ops(cached, rebuilt: list, only=None):
    """An ``_edge_ops`` stand-in that builds Kraus entries from stacks cast to complex128.

    Every Kraus entry is rebuilt, or only those of the parameter value
    ``only``; each rebuilt entry is appended to ``rebuilt``.
    """
    def edges(edge_params, kind):
        entries = list(cached(edge_params, kind)[0])
        for i, params in enumerate(edge_params):
            if kind != "classical" and only in (None, params):
                entries[i] = kraus_entry(one_stack(params).astype(complex), kind)
                rebuilt.append(entries[i])
        return tuple(entries), tuple(engine._floor(entry[None], kind)[0] for entry in entries)

    return edges


def unitary_edge_ops(cached, tree, slot: int):
    """An ``_edge_ops`` stand-in that gives the JC edge at ``slot`` of ``tree`` the Kraus and
    adjoint entries of ``jc_unitary``, a single unitary with a phase; the rest are ``cached``'s."""
    unitary = jc_unitary(tree.nodes[slot].params.a)[None]

    def edges(edge_params, kind):
        entries = list(cached(edge_params, kind)[0])
        if kind == "kraus":
            entries[slot - 1] = kraus_entry(unitary)
        elif kind == "adjoint" and slot == tree.kids[0][1]:
            entries[0] = kraus_entry(unitary, "adjoint")
        return tuple(entries), tuple(engine._floor(entry[None], kind)[0] for entry in entries)

    return edges


PI = (0.1, 0.2, 0.3, 0.4)
# Draws where Kraus operators drop out: a zero flip weight, or F without its identity or instruments.
BOUNDARY_PARAMS = (ModelParams.jc(0.0), ModelParams.binary(0.0), ModelParams.binary(1.0),
                   ModelParams.felsenstein(0.0, PI), ModelParams.felsenstein(1.0, PI))
# A cold Kraus build of these trees must take the field models gives it, coercing nothing.
FIELD_TREES = (
    "((A[&model=JC,a=0.1],B[&model=K2,a=0.1,b=0.05])[&model=K3,a=0.1,b=0.05,c=0.02],"
    "(C[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}],D[&model=F,a=0,pi={0.1,0.2,0.3,0.4}])"
    "[&model=F,a=1,pi={0.1,0.2,0.3,0.4}]);",
    "((A[&model=B,a=0.1],B[&model=B,a=0])[&model=B,a=1],C[&model=B,a=0.3]);",
)


class TestRealField:
    """Real Kraus families run in float64, pinned bit for bit to their complex form."""

    @pytest.mark.parametrize("text", FIELD_TREES, ids=["mixed", "binary"])
    def test_cold_kraus_build_coerces_nothing(self, monkeypatch, text):
        def refuse(m):
            raise AssertionError("the Kraus build called linalg.as_matrix")

        edge_params = tuple(node.params for node in parse_newick(text).nodes[1:])
        monkeypatch.setattr(linalg, "as_matrix", refuse)
        engine._edge_ops.cache_clear()
        try:
            edges = [edge for kind in KINDS[1:] for edge in engine._edge_ops(edge_params, kind)[0]]
        finally:
            engine._edge_ops.cache_clear()
        assert {edge.dtype for edge in edges} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("params", [
        *(random_params(np.random.default_rng(seed), family)
          for seed in range(3) for family in FAMILIES),
        *BOUNDARY_PARAMS,
    ], ids=lambda params: f"{params.family}-a={params.a:.3g}")
    def test_real_forms_are_the_real_parts_of_the_complex_forms(self, params):
        ops = one_stack(params)
        m = params.n_states
        assert isinstance(ops, np.ndarray) and ops.dtype == np.float64 and ops.shape[1:] == (m, m)
        assert np.array_equal(_embed_stack(ops)[:, 1:, 1:], ops)
        for kind in KINDS[1:]:
            value, reference = edge_entry(params, kind), kraus_entry(ops.astype(complex), kind)
            assert value.dtype == np.float64 and reference.dtype == np.complex128
            assert value.tobytes() == reference.real.tobytes()
            assert not reference.imag.any()

    @pytest.mark.parametrize("unitary", [jc_unitary(0.05), jc_unitary(0.1),
                                         random_unitary(np.random.default_rng(3), 4)])
    def test_complex_operators_stay_complex(self, unitary):
        for kind in KINDS[1:]:
            assert kraus_entry(unitary[None], kind).dtype == np.complex128

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.sampled_from(FAMILIES))
    def test_whole_tree_reports_match_the_complex_run_bytewise(self, seed, n_leaves, family):
        rng = np.random.default_rng(seed)
        tree, aln = random_instance(rng, n_leaves, family, n_sites=6)
        tree = dataclasses.replace(tree, root_pi=rng.dirichlet(np.ones(tree.n_states)))
        real = [json.dumps(alignment_loglik(tree, aln, engine=e).to_document())
                for e in ("quantum", "dual")]
        rebuilt = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_edge_ops", complex_edge_ops(engine._edge_ops, rebuilt))
            full = [json.dumps(alignment_loglik(tree, aln, engine=e).to_document())
                    for e in ("quantum", "dual")]
        assert {edge.dtype for edge in rebuilt} == {np.dtype(complex)}
        assert real == full

    @pytest.mark.parametrize("slot", range(1, 7))
    def test_complex_edge_runs_the_complex_branch(self, monkeypatch, slot):
        # |jc_unitary(a)|^2 = markov(JC(a)), so one edge's complex-phase unitary
        # must leave every site's likelihood where the real JC family puts it.
        tree = parse_newick("((A[&model=JC,a=0.1],B[&model=JC,a=0.2])[&model=JC,a=0.05],"
                            "(C[&model=JC,a=0.15],D[&model=JC,a=0.08])[&model=JC,a=0.12]);")
        aln = Alignment(taxa=("A", "B", "C", "D"),
                        data=np.random.default_rng(slot).integers(0, 4, (4, 40)), alphabet=DNA)
        classical = alignment_loglik(tree, aln).log
        one_complex_edge = unitary_edge_ops(engine._edge_ops, tree, slot)
        real_node = engine._quantum_node
        work_dtypes = []

        def recording_node(*args, buffers):
            *_, pinch, shift_trace = buffers
            assert shift_trace.dtype == pinch.dtype
            work_dtypes.append(pinch.dtype)
            return real_node(*args, buffers=buffers)

        monkeypatch.setattr(engine, "_quantum_node", recording_node)
        for name in ("quantum", "dual"):
            alignment_loglik(tree, aln, engine=name)
        assert set(work_dtypes) == {np.dtype(np.float64)}
        work_dtypes.clear()
        monkeypatch.setattr(engine, "_edge_ops", one_complex_edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for name in ("quantum", "dual"):
                logs = alignment_loglik(tree, aln, engine=name).log
                assert np.abs(logs - classical).max() < 1e-12
        assert set(work_dtypes) == {np.dtype(np.complex128)}


class TestAlignmentLoglik:
    def test_identical_cherry_site_is_quarter(self):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.0))
        aln = Alignment(taxa=("A", "B"), data=np.array([[0], [0]]), alphabet=DNA)
        report = alignment_loglik(tree, aln)
        assert report.total_log_likelihood == pytest.approx(-np.log(4.0))

    def test_frozen_mismatch_cherry(self):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.1))
        aln = Alignment(taxa=("A", "B"), data=np.array([[0], [1]]), alphabet=DNA)
        for engine in ("classical", "quantum", "dual"):
            report = alignment_loglik(tree, aln, engine=engine)
            assert report.total_log_likelihood == pytest.approx(np.log(0.04), abs=1e-10)

    def test_sites_factorize(self, rng):
        tree, aln = random_instance(rng, 3, "K2", n_sites=3)
        report = alignment_loglik(tree, aln)
        assert report.total_log_likelihood == pytest.approx(
            sum(report.log))
        singles = []
        for site in range(3):
            one = Alignment(taxa=aln.taxa, data=aln.data[:, site:site + 1], alphabet=aln.alphabet)
            singles.append(alignment_loglik(tree, one).total_log_likelihood)
        assert report.total_log_likelihood == pytest.approx(sum(singles), abs=1e-12)

    def test_engines_agree_on_random_instances(self, rng):
        for family in ("JC", "K2", "K3", "B", "F"):
            tree, aln = random_instance(rng, int(rng.integers(2, 7)), family, n_sites=2)
            totals = [alignment_loglik(tree, aln, engine=e).total_log_likelihood
                      for e in ("classical", "quantum", "dual")]
            assert abs(totals[0] - totals[1]) < 1e-8
            assert abs(totals[0] - totals[2]) < 1e-8

    def test_binary_alphabet_end_to_end(self, rng):
        tree = tree_with_shared_params(CHERRY, ModelParams.binary(0.2))
        aln = Alignment(taxa=("A", "B"), data=np.array([[0, 1], [1, 1]]), alphabet=BINARY)
        report = alignment_loglik(tree, aln, engine="quantum")
        # By hand: P(0,1) = sum_r (1/2) M[0,r] M[1,r] = M00*M10 = ...
        m = markov(ModelParams.binary(0.2))
        p01 = 0.5 * (m[0, 0] * m[1, 0] + m[0, 1] * m[1, 1])
        p11 = 0.5 * (m[1, 0] ** 2 + m[1, 1] ** 2)
        assert report.total_log_likelihood == pytest.approx(np.log(p01) + np.log(p11), abs=1e-12)

    def test_taxa_mismatch(self):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.1))
        aln = Alignment(taxa=("A", "X"), data=np.array([[0], [0]]), alphabet=DNA)
        with pytest.raises(TaxaMismatchError):
            alignment_loglik(tree, aln)

    def test_alphabet_mismatch(self):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.1))
        aln = Alignment(taxa=("A", "B"), data=np.array([[0], [0]]), alphabet=BINARY)
        with pytest.raises(ModelError):
            alignment_loglik(tree, aln)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_site_reported_with_index(self, engine):
        tree = tree_with_shared_params(CHERRY, ModelParams.jc(0.0))
        # In the second alignment the zero sites 3 and 4 are the patterns (3, 1) and
        # (0, 2), which sort the other way, and the first zero pattern is pattern 2 of 3:
        # the first zero site in alignment order is named.
        for data, site in (([[0, 0], [0, 1]], 2), ([[0, 0, 3, 0], [0, 0, 1, 2]], 3)):
            aln = Alignment(taxa=("A", "B"), data=np.array(data), alphabet=DNA)
            with pytest.raises(ZeroLikelihoodError) as err:
                alignment_loglik(tree, aln, engine=engine)
            assert err.value.site == site

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dead_root_left_child_reported_with_index(self, engine):
        # Site 2 puts different characters on the frozen cherry (A, B), so the
        # root's left child has a zero likelihood operator (the dual engine's nu = 0).
        tree = parse_newick("((A[&model=JC,a=0],B[&model=JC,a=0])[&model=JC,a=0.1],"
                            "C[&model=JC,a=0.1]);")
        aln = Alignment(taxa=("A", "B", "C"), data=np.array([[0, 0, 2], [0, 1, 2], [0, 1, 2]]),
                        alphabet=DNA)
        with pytest.raises(ZeroLikelihoodError) as err:
            alignment_loglik(tree, aln, engine=engine)
        assert err.value.site == 2

    @pytest.mark.parametrize("name", ENGINES)
    def test_alignment_without_sites_has_zero_log_likelihood(self, monkeypatch, name):
        # The Kraus engines run every node on a (3, 25, 0) work array and a (4, 0) output.
        outputs = []
        real_node = engine._quantum_node

        def recording_node(*args, buffers):
            outputs.append(real_node(*args, buffers=buffers))
            return outputs[-1]

        monkeypatch.setattr(engine, "_quantum_node", recording_node)
        for n_leaves in (4, 5):
            outputs.clear()
            tree, _ = random_instance(np.random.default_rng(7), n_leaves, "K3")
            aln = Alignment(taxa=tree.leaf_names, data=np.zeros((n_leaves, 0), dtype=int),
                            alphabet=DNA)
            report = alignment_loglik(tree, aln, engine=name)
            assert report.total_log_likelihood == 0.0
            assert report.likelihood.shape == report.log.shape == (0,)
            assert (report.nu is None) == (name != "dual")
            if name == "dual":
                assert report.nu.shape == (0,)
            assert report.to_document()["per_site"] == []
            nodes = {"classical": 0, "quantum": n_leaves - 1, "dual": n_leaves - 2}[name]
            assert [out.shape for out in outputs] == [(4, 0)] * nodes

    def test_readme_example_tree_runs_on_every_engine(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (text,) = re.findall(r"^\*\*Trees\*\*.*?^```text\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        tree = parse_newick(text)
        data = np.random.default_rng(27).integers(0, 4, (tree.n_leaves, 30))
        aln = Alignment(taxa=tree.leaf_names, data=data, alphabet=DNA)
        totals = [alignment_loglik(tree, aln, engine=e).total_log_likelihood for e in ENGINES]
        assert np.isfinite(totals[0])
        assert abs(totals[0] - totals[1]) < 1e-8
        assert abs(totals[0] - totals[2]) < 1e-8

    def test_deep_tree_does_not_underflow_to_zero(self):
        # Each site's likelihood is about exp(-1470), far below the float64 range.
        names = [f"t{i}" for i in range(1024)]
        level = [f"{name}:0.5" for name in names]
        while len(level) > 1:
            level = [f"({a},{b}):0.5" for a, b in zip(level[::2], level[1::2])]
        tree = parse_newick(level[0][:-len(":0.5")] + ";")
        data = np.random.default_rng(5).integers(0, 4, size=(1024, 5))
        aln = Alignment(taxa=tuple(names), data=data, alphabet=DNA)
        totals = [alignment_loglik(tree, aln, engine=e).total_log_likelihood
                  for e in ("classical", "quantum", "dual")]
        assert all(np.isfinite(totals))
        assert totals[0] < 5 * -1000.0
        assert abs(totals[0] - totals[1]) < 1e-8
        assert abs(totals[0] - totals[2]) < 1e-8

    def test_dual_engine_records_trace_factors(self, rng):
        tree, aln = random_instance(rng, 4, "JC", n_sites=2)
        report = alignment_loglik(tree, aln, engine="dual")
        assert report.nu is not None and report.nu.shape == (aln.n_sites,)
        classical = alignment_loglik(tree, aln, engine="classical")
        assert classical.nu is None

    @pytest.mark.parametrize("name", ENGINES)
    def test_warm_call_allocates_no_leaf_block(self, name):
        # The leaves are views of the alignment's indicator block, so a warm call's
        # peak stays below that block's size beyond the Kraus engines' work arrays.
        tree, aln = wide_instance(np.random.default_rng(32))
        work = 0 if name == "classical" else 3 * (tree.n_states + 1) ** 2 * len(aln.patterns) * 8
        alignment_loglik(tree, aln, engine=name)
        tracemalloc.start()
        try:
            alignment_loglik(tree, aln, engine=name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < aln.indicators.nbytes + work

    def test_report_document_schema(self, rng):
        tree, aln = random_instance(rng, 3, "JC", n_sites=2)
        doc = alignment_loglik(tree, aln).to_document()
        assert set(doc) == {"engine", "per_site", "total_log_likelihood", "parameters"}
        assert set(doc["per_site"][0]) == {"site", "likelihood", "log"}


def balanced_newick(names: list, edges) -> str:
    """A balanced tree over leaf names; every edge takes the next annotation of ``edges``."""
    edges = iter(edges)

    def build(group, edge=""):
        if len(group) == 1:
            return group[0] + edge
        half = (len(group) + 1) // 2
        return f"({build(group[:half], next(edges))},{build(group[half:], next(edges))}){edge}"

    return build(list(names)) + ";"


# Edge annotations near the substitution probability 0.05 of the bench's `wide` trees.
WIDE_EDGES = ("[&model=JC,a=0.016667]", "[&model=K2,a=0.03,b=0.01]",
              "[&model=K3,a=0.02,b=0.015,c=0.015]", "[&model=F,a=0.93,pi={0.1,0.2,0.3,0.4}]")


def wide_instance(rng):
    """A tree and alignment shaped like the bench's `wide`: 32 leaves, 300 random DNA sites."""
    names = [f"t{i}" for i in range(32)]
    tree = parse_newick(balanced_newick(names, (WIDE_EDGES[j] for j in rng.integers(0, 4, size=62))))
    data = rng.integers(0, 4, size=(32, 300))
    return tree, Alignment(taxa=tree.leaf_names, data=data, alphabet=DNA)


@pytest.fixture
def frexp_calls(monkeypatch):
    """The arrays np.frexp is called on while the test runs: the engine's rescale events."""
    calls = []

    def spy(x, *args, _frexp=np.frexp, **kwargs):
        calls.append(x)
        return _frexp(x, *args, **kwargs)

    monkeypatch.setattr(engine.np, "frexp", spy)
    return calls


@pytest.fixture
def screens(monkeypatch):
    """The node outputs the underflow screen takes a whole-array minimum of while the test runs."""
    calls = []

    class Output(np.ndarray):
        def min(self, *args, **kwargs):
            if self.ndim == 2:
                calls.append(self)
            return self.view(np.ndarray).min(*args, **kwargs)

    for name in ("_classical_node", "_quantum_node"):
        def recorded(*args, _node=getattr(engine, name), **kwargs):
            return _node(*args, **kwargs).view(Output)
        monkeypatch.setattr(engine, name, recorded)
    return calls


@contextlib.contextmanager
def zero_floors():
    """Every edge floor forced to 0.0, so every node below the root takes the screen."""
    engine._edge_ops.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_floor", lambda entries, kind: [0.0] * len(entries))
            yield
    finally:
        engine._edge_ops.cache_clear()


def deep_instance():
    """The balanced 1024-leaf tree and 5 sites of test_deep_tree_does_not_underflow_to_zero."""
    names = [f"t{i}" for i in range(1024)]
    tree = parse_newick(balanced_newick(names, itertools.repeat(":0.5")))
    data = np.random.default_rng(5).integers(0, 4, size=(1024, 5))
    return tree, Alignment(taxa=tuple(names), data=data, alphabet=DNA)


def tiny_jc_instance():
    """The 6-leaf tree of test_rescaled_sites_match_the_exact_tensor: each substitution costs
    about 1e-50, so every node whose leaves differ underflows the floor."""
    names = [f"t{i}" for i in range(6)]
    tree = parse_newick(balanced_newick(names, itertools.repeat("[&model=JC,a=1e-50]")))
    data = np.random.default_rng(17).integers(0, 4, size=(6, 400))
    return tree, Alignment(taxa=tree.leaf_names, data=data, alphabet=DNA)


def frozen_wide_instance():
    """wide_instance(32) with every left edge frozen (JC a=0): exact zeros in every node."""
    tree, aln = wide_instance(np.random.default_rng(32))
    lefts = {kids[0] for kids in tree.kids if kids}
    return tree_with_edge_params(tree, (ModelParams.jc(0.0) if slot in lefts else node.params
                                        for slot, node in enumerate(tree.nodes) if slot)), aln


def caterpillar_instance():
    """A 600-leaf caterpillar on 20 random sites, about 2^-1200 each."""
    tree = caterpillar(600)
    data = np.random.default_rng(9).integers(0, 4, size=(600, 20))
    return tree, Alignment(taxa=tree.leaf_names, data=data, alphabet=DNA)


GATE_INSTANCES = {"deep-1024": deep_instance, "jc-1e-50": tiny_jc_instance,
                  "frozen-wide": frozen_wide_instance, "caterpillar-600": caterpillar_instance,
                  "complex-deep-1024": deep_instance}


class TestRescaling:
    """Nodes are rescaled by exact powers of two, and only near underflow."""

    @pytest.mark.parametrize("name", GATE_INSTANCES)
    def test_gated_screens_match_screening_every_node(self, frexp_calls, screens, name):
        # Floors of 0.0 give every node a bound of 0.0, which is the rule without the gate.
        tree, aln = GATE_INSTANCES[name]()
        edge_ops = engine._edge_ops
        if name.startswith("complex"):
            edge_ops = complex_edge_ops(edge_ops, [])
        runs = []
        for gate in (contextlib.nullcontext, zero_floors):
            frexp_calls.clear()
            screens.clear()
            with gate(), pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "_edge_ops", edge_ops)
                reports = [alignment_loglik(tree, aln, engine=e) for e in ENGINES]
            runs.append((reports, [x.tobytes() for x in frexp_calls], len(screens)))
        (gated, gated_frexp, gated_screens), (every, every_frexp, every_screens) = runs
        assert gated_frexp == every_frexp
        assert (len(gated_frexp) > 0) == (name != "frozen-wide")
        # Every node below the root, once per engine.
        assert every_screens == 3 * (tree.n_leaves - 2)
        assert gated_screens <= every_screens
        for new, old in zip(gated, every):
            for column in ("log", "likelihood", "nu"):
                assert getattr(new, column) is None or (
                    getattr(new, column).tobytes() == getattr(old, column).tobytes())

    @pytest.mark.parametrize("per_edge", (False, True))
    @pytest.mark.parametrize("fit_engine", ENGINES)
    def test_fits_match_screening_every_node(self, fit_engine, per_edge):
        tree, aln = random_instance(np.random.default_rng(29), 5, "K2", n_sites=40)
        problem = OptimizationProblem(tree=tree, alignment=aln, family="K2", engine=fit_engine,
                                      per_edge=per_edge)
        gated = maximize_loglik(problem).to_document()
        with zero_floors():
            every = maximize_loglik(problem).to_document()
        assert json.dumps(gated) == json.dumps(every)

    def test_a_node_is_screened_only_where_its_bound_is_below_the_floor(self, frexp_calls, screens):
        # A JC edge's floor is its weight a. Between leaves that differ, the cherry's least
        # entry is a^2, and 0.5 a^2 < 2^-256 <= a^2: the bound cannot clear the cherry, so
        # it is screened, and passes.
        a = 1.2 * 2.0 ** -128
        tight = parse_newick(f"((A[&model=JC,a={a!r}],B[&model=JC,a={a!r}])[&model=JC,a=0.1],"
                             "C[&model=JC,a=0.1]);")
        # Weight 1e-100 puts the cherry's maxima below the floor, so it is rescaled; its
        # rescaled maxima are at least 1/2, which clears its parent.
        rescaled = parse_newick("(((A[&model=JC,a=1e-100],B[&model=JC,a=1e-100])[&model=JC,a=0.1],"
                                "C[&model=JC,a=0.1])[&model=JC,a=0.1],D[&model=JC,a=0.1]);")
        for tree, n_rescales in ((tight, 0), (rescaled, 1)):
            data = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])[:tree.n_leaves]
            aln = Alignment(taxa=tree.leaf_names, data=data, alphabet=DNA)
            for name in ENGINES:
                frexp_calls.clear()
                screens.clear()
                alignment_loglik(tree, aln, engine=name)
                assert [out.shape for out in screens] == [(4, 4)]
                assert len(frexp_calls) == n_rescales

    def test_wide_tree_is_never_screened(self, screens):
        tree, aln = wide_instance(np.random.default_rng(32))
        for name in ENGINES:
            alignment_loglik(tree, aln, engine=name)
        assert not screens

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.sampled_from(("JC", "K2", "K3", "F")),
           st.booleans())
    def test_rescaling_every_node_changes_nothing(self, seed, n_leaves, family, one_complex):
        rng = np.random.default_rng(seed)
        tree, aln = random_instance(rng, n_leaves, family, n_sites=8)
        complex_params = tree.nodes[int(rng.integers(1, len(tree.nodes)))].params
        edges = engine._edge_ops
        if one_complex:
            edges = complex_edge_ops(edges, [], only=complex_params)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_edge_ops", edges)
            default = [alignment_loglik(tree, aln, engine=e) for e in ENGINES]
            patch.setattr(engine, "_SCALE_FLOOR", 1.0)
            rescaled = [alignment_loglik(tree, aln, engine=e) for e in ENGINES]
        for one, other in zip(default, rescaled):
            np.testing.assert_allclose(other.log, one.log, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(rescaled[2].nu, default[2].nu, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", ENGINES)
    def test_rescaled_sites_match_the_exact_tensor(self, frexp_calls, name):
        # Site probabilities reach about exp(-460).
        tree, aln = tiny_jc_instance()
        exact = np.log(simulate_tree(tree).values[tuple(aln.data)])
        assert exact.min() < -400.0
        report = alignment_loglik(tree, aln, engine=name)
        np.testing.assert_allclose(report.log, exact, rtol=1e-12, atol=0.0)
        assert frexp_calls

    def test_wide_tree_is_never_rescaled(self, frexp_calls):
        tree, aln = wide_instance(np.random.default_rng(32))
        assert len(aln.site_patterns()[0]) == 300
        # The frozen edges' exact zeros all take the per-pattern test; no two leaves are
        # joined by frozen edges alone, so no site has zero likelihood.
        frozen, _ = frozen_wide_instance()
        for one in (tree, frozen):
            for name in ENGINES:
                alignment_loglik(one, aln, engine=name)
        assert not frexp_calls

    def test_deep_tree_is_rescaled(self, frexp_calls):
        tree, aln = deep_instance()
        for name in ENGINES:
            frexp_calls.clear()
            alignment_loglik(tree, aln, engine=name)
            assert frexp_calls


class TestLikelihoodSimulationDuality:
    def test_pattern_probabilities_match_tensor(self, rng):
        tree, _ = random_instance(rng, 3, "K3")
        tensor = simulate_tree(tree)
        total = 0.0
        for pattern in itertools.product(range(4), repeat=3):
            aln = Alignment(taxa=tree.leaf_names, data=np.array(pattern).reshape(3, 1), alphabet=DNA)
            value = np.exp(alignment_loglik(tree, aln).total_log_likelihood)
            assert abs(value - tensor.values[pattern]) < 1e-10
            total += value
        assert abs(total - 1.0) < 1e-10


class TestTraceProductIdentity:
    def test_trace_of_products_factorizes(self, rng):
        for _ in range(20):
            a, b, c, d = (np.diag(rng.random(4)).astype(complex) for _ in range(4))
            lhs = np.trace(a @ b) * np.trace(c @ d)
            rhs = np.trace(np.kron(a, c) @ np.kron(b, d))
            assert abs(lhs - rhs) < 1e-12
