import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qphylo.engine import alignment_loglik, simulate_tree
from qphylo.errors import ModelError
from qphylo.models import FAMILIES, FAMILY, ModelParams
from qphylo.optimize import (OptimizationProblem, _region, maximize_loglik,
                             reflect_feasible, tree_with_edge_params, tree_with_shared_params)
from qphylo.treeio import BINARY, DNA, Alignment, parse_newick

BALANCED = parse_newick("((A:0.1,B:0.1):0.1,(C:0.1,D:0.1):0.1);")
CHERRY = parse_newick("(A:0.1,B:0.1);")


def simulated_alignment(tree, params, n_sites, seed):
    full = tree_with_shared_params(tree, params)
    tensor = simulate_tree(full)
    flat = tensor.values.ravel()
    rng = np.random.default_rng(seed)
    draws = rng.choice(flat.size, size=n_sites, p=flat / flat.sum())
    data = np.array(np.unravel_index(draws, tensor.values.shape))
    alphabet = BINARY if params.family == "B" else DNA
    return Alignment(taxa=full.leaf_names, data=data, alphabet=alphabet)


def reference_reflect(x, upper, drives):
    """One block reflected as the optimizer did before it reflected whole arrays,
    with its explicit zero lower bound."""
    lower = np.zeros_like(upper)

    def box(x):
        period = 2.0 * (upper - lower)
        y = np.mod(x - lower, period)
        return lower + np.minimum(y, period - y)

    x = box(np.asarray(x, dtype=float))
    if drives is not None:
        c = drives
        excess = c @ x - 1.0
        if excess > 0.0:
            x = box(x - 2.0 * excess / (c @ c) * c)
            if c @ x > 1.0:
                x = x * (1.0 / (c @ x))
    return np.clip(x, lower, upper)


# Coordinates that reach every branch: signed zeros, the box faces, inside,
# over the facet, and outside the box on either side.
EDGE_VALUES = [0.0, -0.0, 1.0 / 3.0, 0.5, 1.0, 0.9, -0.05, 1.2, -1.7, 2.5]


@st.composite
def blocks(draw):
    family = draw(st.sampled_from(FAMILIES))
    d = len(FAMILY[family].weights)
    coordinate = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(EDGE_VALUES))
    rows = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=7))
    return family, np.array(rows)


class TestReflection:
    def test_inside_stays_put(self):
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(reflect_feasible(x, *_region("K3")), x)

    def test_box_violation_mirrors(self):
        assert reflect_feasible(np.array([-0.05]), *_region("JC"))[0] == pytest.approx(0.05)

    def test_simplex_violation_reflects_across_facet(self):
        out = reflect_feasible(np.array([0.5, 0.4, 0.3]), *_region("K3"))
        assert out.sum() <= 1.0 + 1e-12
        assert out.min() >= 0.0

    def test_k2_weight_sum(self):
        out = reflect_feasible(np.array([0.8, 0.4]), *_region("K2"))
        assert out[0] + 2 * out[1] <= 1.0 + 1e-12

    def test_double_violation_is_pulled_onto_the_facet(self):
        # (0.9, 0.9) reflects across a + 2b = 1 to (0.22, -0.46), which the box
        # mirrors to (0.22, 0.46), still over the facet.
        upper, drives = _region("K2")
        out = reflect_feasible(np.array([[0.9, 0.9]]), upper, drives)[0]
        assert out @ drives == 1.0
        assert out == pytest.approx(np.array([0.22, 0.46]) / 1.14, rel=1e-12)

    @settings(max_examples=500)
    @given(blocks())
    @example(("K2", np.array([[0.9, 0.9], [0.1, 0.2], [-0.0, 0.0]])))
    @example(("K3", np.array([[0.5, 0.4, 0.3], [-0.0, -0.0, 1.0], [1.2, -0.05, 0.5]])))
    @example(("JC", np.array([[-0.0], [0.4], [-0.05]])))
    def test_rows_match_the_per_block_reflection_bytewise(self, case):
        family, x = case
        upper, drives = _region(family)
        want = np.array([reference_reflect(row, upper, drives) for row in x])
        assert reflect_feasible(x, upper, drives).tobytes() == want.tobytes()


class TestMaximizeLoglik:
    def test_identical_sites_push_to_boundary(self):
        # All sites agree across both taxa, so no substitution fits best.
        data = np.zeros((2, 40), dtype=int)
        aln = Alignment(taxa=("A", "B"), data=data, alphabet=DNA)
        result = maximize_loglik(OptimizationProblem(tree=CHERRY, alignment=aln,
                                                     family="JC", seed=0))
        assert result.w_star[0] == pytest.approx(0.0, abs=1e-6)
        assert result.loglik == pytest.approx(40 * np.log(0.25), abs=1e-8)

    def test_trace_is_monotone_best_so_far(self):
        aln = simulated_alignment(BALANCED, ModelParams.jc(0.1), 200, seed=11)
        result = maximize_loglik(OptimizationProblem(tree=BALANCED, alignment=aln,
                                                     family="JC", seed=0))
        logs = [t.loglik for t in result.trace]
        assert all(b >= a - 1e-12 for a, b in zip(logs, logs[1:]))
        assert result.loglik >= max(logs) - 1e-12

    def test_rerun_is_bit_identical(self):
        aln = simulated_alignment(BALANCED, ModelParams.jc(0.1), 150, seed=3)
        problem = OptimizationProblem(tree=BALANCED, alignment=aln, family="JC", seed=7)
        first = maximize_loglik(problem)
        second = maximize_loglik(problem)
        assert first == second

    def test_jc_recovery_smoke(self):
        aln = simulated_alignment(BALANCED, ModelParams.jc(0.1), 2000, seed=101)
        result = maximize_loglik(OptimizationProblem(tree=BALANCED, alignment=aln,
                                                     family="JC", seed=0))
        assert 0.08 <= result.w_star[0] <= 0.12
        assert result.converged

    def test_classical_and_quantum_objectives_agree(self):
        aln = simulated_alignment(BALANCED, ModelParams.jc(0.1), 400, seed=23)
        runs = {}
        for engine in ("classical", "quantum"):
            runs[engine] = maximize_loglik(OptimizationProblem(
                tree=BALANCED, alignment=aln, family="JC", engine=engine, seed=1))
        assert abs(runs["classical"].w_star[0] - runs["quantum"].w_star[0]) < 1e-4

    def test_family_alphabet_mismatch(self):
        aln = Alignment(taxa=("A", "B"), data=np.zeros((2, 3), dtype=int), alphabet=BINARY)
        with pytest.raises(ModelError):
            maximize_loglik(OptimizationProblem(tree=CHERRY, alignment=aln, family="K3", seed=0))

    def test_binary_family_fit(self):
        truth = ModelParams.binary(0.15)
        aln = simulated_alignment(CHERRY, truth, 3000, seed=9)
        result = maximize_loglik(OptimizationProblem(tree=CHERRY, alignment=aln,
                                                     family="B", seed=0))
        assert abs(result.w_star[0] - 0.15) < 0.05

    def test_per_edge_mode_beats_or_matches_shared_fit(self):
        # Heterogeneous truth: each edge gets its own weight, pre-order.
        tree = parse_newick("((A:1,B:1):1,C:1);")
        from qphylo.optimize import tree_with_edge_params
        truth = [ModelParams.jc(a) for a in (0.05, 0.25, 0.02, 0.15)]
        full = tree_with_edge_params(tree, truth)
        tensor = simulate_tree(full)
        flat = tensor.values.ravel()
        rng = np.random.default_rng(77)
        draws = rng.choice(flat.size, size=400, p=flat / flat.sum())
        data = np.array(np.unravel_index(draws, tensor.values.shape))
        aln = Alignment(taxa=full.leaf_names, data=data, alphabet=DNA)
        shared = maximize_loglik(OptimizationProblem(tree=tree, alignment=aln,
                                                     family="JC", seed=0))
        per_edge = maximize_loglik(OptimizationProblem(tree=tree, alignment=aln,
                                                       family="JC", seed=0, per_edge=True))
        assert len(per_edge.w_star) == 4
        assert per_edge.names[0] == "edge1.a"
        assert per_edge.loglik >= shared.loglik - 1e-9

    def test_document_schema(self):
        aln = simulated_alignment(CHERRY, ModelParams.jc(0.1), 50, seed=2)
        doc = maximize_loglik(OptimizationProblem(tree=CHERRY, alignment=aln,
                                                  family="JC", seed=4)).to_document()
        assert {"family", "engine", "seed", "w_star", "fixed", "log_likelihood",
                "n_eval", "converged", "trace"} == set(doc)
        assert doc["seed"] == 4


class TestEdgeOrder:
    """Edges are numbered in pre-order: the root's left edge first, then its subtree."""

    TREE = parse_newick("((A:1,B:1):1,C:1);")

    def test_edge_params_follow_pre_order(self):
        params = [ModelParams.jc(a) for a in (0.01, 0.02, 0.03, 0.04)]
        ab, c = tree_with_edge_params(self.TREE, params).root.children
        a, b = ab.children
        assert [ab.params, a.params, b.params, c.params] == params

    def test_per_edge_fit_names_follow_pre_order(self):
        # A and B agree at every site and C is independent of them, so the fit
        # sends the A and B edges to zero and saturates the C edge.
        rng = np.random.default_rng(3)
        ab, c = rng.integers(0, 4, size=(2, 200))
        aln = Alignment(taxa=("A", "B", "C"), data=np.array([ab, ab, c]), alphabet=DNA)
        result = maximize_loglik(OptimizationProblem(tree=self.TREE, alignment=aln, family="JC",
                                                     per_edge=True))
        assert result.names == ("edge1.a", "edge2.a", "edge3.a", "edge4.a")
        w = dict(zip(result.names, result.w_star))
        assert w["edge2.a"] < 1e-6 and w["edge3.a"] < 1e-6
        assert w["edge4.a"] > 0.2
        fitted = tree_with_edge_params(self.TREE, [ModelParams.jc(x) for x in result.w_star])
        assert alignment_loglik(fitted, aln).total_log_likelihood == pytest.approx(result.loglik,
                                                                                    abs=1e-9)
