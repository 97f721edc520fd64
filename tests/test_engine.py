import itertools
import tracemalloc

import numpy as np
import pytest

from qphylo import linalg
from qphylo.channels import KrausChannel, apply_channel, collective_diagonalizer, control_not
from qphylo.engine import (ENGINES, MAX_TENSOR_BYTES, _EdgeOps, _adjoint_state, _classical_node,
                           _collective_pinch, _diagonal, _dual_root, _inverse_control_shift,
                           _kraus_propagate, _pinch_weights, _quantum_node, _trace_second_slot,
                           alignment_loglik, simulate_tree)
from qphylo.errors import ModelError, TaxaMismatchError, ZeroLikelihoodError
from qphylo.models import ModelParams, markov, prune_matrix, prune_operators, unitary_from_markov
from qphylo.optimize import tree_with_shared_params
from qphylo.treeio import BINARY, DNA, Alignment, parse_newick
from qphylo.verify import random_instance, random_params

from conftest import random_density, random_unitary

CHERRY = parse_newick("(A:0.1,B:0.1);")
# Leaf likelihood vectors as alignment_loglik builds them: row x indicates character x.
A, C = np.eye(4)[:2]
CATERPILLAR_20 = parse_newick("(" * 19 + "t0:0.1" + "".join(f",t{i}:0.1):0.1" for i in range(1, 20)) + ";")


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
        assert abs(simulate_tree(tree).mass() - 1.0) < 1e-12

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

    def test_budget_counts_states_not_leaves(self):
        tree = tree_with_shared_params(CATERPILLAR_20, ModelParams.binary(0.1))
        assert simulate_tree(tree).values.shape == (2,) * 20


def classical_pair(lb, lc, mb, mc):
    """One classical node step at P = 1, W = M^T per edge."""
    return _classical_node(lb[None], lc[None], _EdgeOps(w=mb.T), _EdgeOps(w=mc.T))[0]


def quantum_pair(lb, lc, ub, uc):
    """One pruning-circuit node step at P = 1, one unitary per edge."""
    return _quantum_node(lb[None], lc[None], _EdgeOps.from_kraus([ub]), _EdgeOps.from_kraus([uc]))[0]


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
        m = markov(ModelParams.jc(0.1))
        u = unitary_from_markov(m)
        out = quantum_pair(A, C, u, u)
        assert np.abs(out - [0.07, 0.07, 0.01, 0.01]).max() < 1e-10

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
        eye = _EdgeOps.from_kraus([np.eye(4)])
        q, nu = _pinch_weights(A[None], eye)
        assert nu[0] == 1.0
        assert np.abs(q[0] - [0.0, 1.0, 0.0, 0.0, 0.0]).max() < 1e-14
        values, _ = _dual_root(A[None], lc[None], eye, eye, pi)
        assert abs(values[0] - lc[0] * pi[0]) < 1e-14

    def test_frozen_jc_cherry_recovers_circuit_result(self):
        # A point-mass root reads off one entry of the parent operator nu * E_B(L_C).
        u = unitary_from_markov(markov(ModelParams.jc(0.1)))
        edge = _EdgeOps.from_kraus([u])
        out = [_dual_root(A[None], C[None], edge, edge, root)[0][0] for root in np.eye(4)]
        assert np.abs(np.array(out) - [0.07, 0.07, 0.01, 0.01]).max() < 1e-10

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
            pinch, _ = _pinch_weights(lb[None], _EdgeOps.from_kraus([ub]))
            evolved = _diagonal(_kraus_propagate(lc[None], _EdgeOps.from_kraus([uc]).transfer)).real
            forward = (pinch * evolved)[0, 1:]
            lhs = float(forward @ np.diag(rho).real)
            adjoint = uc.conj().T @ np.diag(q * np.diag(rho)) @ uc
            rhs = np.trace(np.diag(lc).astype(complex) @ adjoint).real
            assert abs(lhs - rhs) < 1e-12


class TestSparseGates:
    """Each sparse gate of the batched pruning circuit against its dense operator."""

    def test_kraus_propagation_matches_apply_channel(self, rng):
        for family in ("JC", "K2", "K3", "B", "F"):
            for _ in range(5):
                ops = _EdgeOps.for_params(random_params(rng, family), "quantum")
                channel = KrausChannel(tuple(ops.stack), trace_preserving=False)
                k = ops.stack.shape[1] - 1
                diags = rng.random((3, k))
                batched = _kraus_propagate(diags, ops.transfer)
                for d, rho in zip(diags, batched):
                    dense = apply_channel(channel, np.diag(np.concatenate([[0.0], d])))
                    assert np.abs(rho - dense).max() < 1e-14

    def test_pinch_gather_matches_collective_diagonalizer(self, rng):
        for n in (3, 5):
            rho_b = np.stack([random_density(rng, n) for _ in range(4)])
            rho_c = np.stack([random_density(rng, n) for _ in range(4)])
            gathered = _collective_pinch(rho_b, rho_c)
            for b, c, diag in zip(rho_b, rho_c, gathered):
                dense = apply_channel(collective_diagonalizer(n), linalg.kron(b, c))
                assert np.abs(dense - np.diag(diag)).max() < 1e-15

    def test_permutation_matches_control_shift_conjugation(self, rng):
        for n in (2, 3, 5):
            ucn_dag = control_not(n).conj().T
            diags = rng.random((4, n * n)) + 1j * rng.random((4, n * n))
            permuted = _inverse_control_shift(diags)
            for d, out in zip(diags, permuted):
                dense = ucn_dag @ np.diag(d) @ ucn_dag.conj().T
                assert np.abs(dense - np.diag(out)).max() == 0.0

    def test_reshape_trace_matches_partial_trace(self, rng):
        for n in (2, 3, 5):
            diags = rng.random((4, n * n)) + 1j * rng.random((4, n * n))
            traced = _trace_second_slot(diags)
            for d, out in zip(diags, traced):
                dense = linalg.partial_trace(np.diag(d), [n, n], traced=2)
                assert np.abs(dense - np.diag(out)).max() < 1e-15


class TestDualRoot:
    def test_adjoint_step_matches_dense_reference(self, rng):
        for _ in range(20):
            ub, uc = random_unitary(rng, 4), random_unitary(rng, 4)
            lb, lc = rng.random((3, 4)), rng.random((3, 4))
            pi = rng.dirichlet(np.ones(4))
            eb, ec = _EdgeOps.from_kraus([ub]), _EdgeOps.from_kraus([uc])
            q, nu = _pinch_weights(lb, eb)
            back = _adjoint_state(q, pi, ec)
            values, nus = _dual_root(lb, lc, eb, ec, pi)
            for i in range(3):
                dense = uc.conj().T @ np.diag(q[i, 1:] * pi) @ uc
                assert np.abs(back[i, 1:, 1:] - dense).max() < 1e-14
                assert np.abs(back[i, 0, :]).max() == 0.0 and np.abs(back[i, :, 0]).max() == 0.0
                expected = nu[i] * np.trace(np.diag(lc[i]) @ dense).real
                assert abs(values[i] - expected) < 1e-14
                assert nus[i] == lb[i].sum()

    def test_kraus_families_match_classical_root(self, rng):
        for family in ("JC", "K2", "K3", "B", "F"):
            pb, pc = random_params(rng, family), random_params(rng, family)
            k = pb.n_states
            lb, lc = rng.random((5, k)), rng.random((5, k))
            pi = rng.dirichlet(np.ones(k))
            values, _ = _dual_root(lb, lc, _EdgeOps.for_params(pb, "dual"),
                                   _EdgeOps.for_params(pc, "dual"), pi)
            classical = ((lb @ prune_matrix(pb).T) * (lc @ prune_matrix(pc).T)) @ pi
            assert np.abs(values - classical).max() < 1e-14

    def test_edge_ops_build_only_what_the_engine_reads(self):
        params = ModelParams.k3(0.1, 0.2, 0.05)
        classical = _EdgeOps.for_params(params, "classical")
        assert classical.stack is None and classical.transfer is None
        quantum = _EdgeOps.for_params(params, "quantum")
        assert quantum.w is None
        assert quantum.stack.shape == (len(prune_operators(params)), 5, 5)


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
        aln = Alignment(taxa=("A", "B"), data=np.array([[0, 0], [0, 1]]), alphabet=DNA)
        with pytest.raises(ZeroLikelihoodError) as err:
            alignment_loglik(tree, aln, engine=engine)
        assert err.value.site == 2

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

    def test_report_document_schema(self, rng):
        tree, aln = random_instance(rng, 3, "JC", n_sites=2)
        doc = alignment_loglik(tree, aln).to_document()
        assert set(doc) == {"engine", "per_site", "total_log_likelihood", "parameters"}
        assert set(doc["per_site"][0]) == {"site", "likelihood", "log"}


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
