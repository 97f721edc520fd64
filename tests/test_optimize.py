from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphylo import cli, optimize
from qphylo.engine import ENGINES, _entries, alignment_loglik, simulate_tree
from qphylo.errors import ModelError
from qphylo.models import FAMILIES, FAMILY, ModelParams
from qphylo.optimize import (OptimizationProblem, maximize_loglik, tree_with_edge_params,
                             tree_with_shared_params)
from qphylo.treeio import BINARY, DNA, Alignment, PhyloTree, parse_fasta, parse_newick
from qphylo.verify import random_params, random_topology

DATA = Path(__file__).parent / "data"
BALANCED = parse_newick("((A:0.1,B:0.1):0.1,(C:0.1,D:0.1):0.1);")
CHERRY = parse_newick("(A:0.1,B:0.1);")
# Criterion 9's tree; simulated at seed 31000 with 2000 sites it gives the W1 data.
TRUTH_TREE = ("((A[&model=JC,a=0.1],B[&model=JC,a=0.1])[&model=JC,a=0.1],"
              "(C[&model=JC,a=0.1],D[&model=JC,a=0.1])[&model=JC,a=0.1]);")


def sampled_alignment(tree, n_sites, seed):
    """n_sites columns drawn from the tree's exact pattern distribution."""
    tensor = simulate_tree(tree).values
    rng = np.random.default_rng(seed)
    draws = rng.choice(tensor.size, size=n_sites, p=tensor.ravel() / tensor.sum())
    data = np.array(np.unravel_index(draws, tensor.shape))
    return Alignment(taxa=tree.leaf_names, data=data, alphabet=BINARY if tree.n_states == 2 else DNA)


def simulated_alignment(tree, params, n_sites, seed):
    return sampled_alignment(tree_with_shared_params(tree, params), n_sites, seed)


@st.composite
def well_posed_fits(draw):
    """A 3-5-leaf topology, 300 sites drawn under shared weights of one family, and the family.

    The weights stay away from the region's boundary: a fit whose likelihood
    is flat to rounding at its optimum (random data, a saturated edge) does
    not pin its weights to 1e-8 on any engine.
    """
    family = draw(st.sampled_from(FAMILIES))
    n_leaves = draw(st.integers(3, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    root = random_topology(rng, [f"t{i + 1}" for i in range(n_leaves)], "JC")
    topology = PhyloTree(root=replace(root, params=None, annotated=False))
    if family == "F":
        params = ModelParams.felsenstein(draw(st.floats(0.5, 0.9)), np.full(4, 0.25))
    else:
        params = ModelParams(family, *(draw(st.floats(0.02, 0.12)) for _ in FAMILY[family].weights))
    return topology, simulated_alignment(topology, params, 300, seed), family


@pytest.mark.parametrize("kind", ("classical", "kraus"))
@pytest.mark.parametrize("family", FAMILIES)
def test_outcome_forms_and_the_remainder_rebuild_each_edge(family, kind):
    """sum_i x_i form_i plus the remainder's entry is the edge's entry. The outcome forms are the
    builder's entries at the unit rows, and the remainder is the identity weight times the zero
    row's entry, or for F 1 - a times F(0, pi)'s."""
    spec = FAMILY[family]
    d, drives = len(spec.weights), np.bincount(spec.flips or (0,))
    rng = np.random.default_rng(23)
    for _ in range(20):
        params = random_params(rng, family)
        (forms, _), x = _entries(family, np.eye(d), params.pi, kind), np.array(params.row)
        if kind == "classical":
            # Weight i drives drives[i] permutations, so each row of its W sums to drives[i].
            assert np.array_equal(forms.sum(axis=2), np.repeat(drives[:, None], spec.n_states, axis=1))
        rest_weight = 1.0 - params.a if spec.takes_pi else 1.0 - drives @ x
        rest = rest_weight * _entries(family, [np.zeros(d)], params.pi, kind)[0][0]
        split = sum(weight * form for weight, form in zip(x, forms)) + rest
        assert np.abs(split - _entries(family, [params.row], params.pi, kind)[0][0]).max() <= 1e-15


@pytest.fixture(scope="module")
def w1_alignment(tmp_path_factory):
    """The W1 data: criterion 9's tree simulated at seed 31000 with 2000 sites."""
    path = tmp_path_factory.mktemp("w1")
    (path / "truth.nwk").write_text(TRUTH_TREE)
    assert cli.main(["simulate", "--tree", str(path / "truth.nwk"), "--sites", "2000",
                     "--seed", "31000", "--out", str(path / "w1")]) == 0
    return parse_fasta((path / "w1.fasta").read_text())


@pytest.mark.parametrize("per_edge", (False, True), ids=("shared", "per-edge"))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_fit_point_passes_the_region_check(monkeypatch, w1_alignment, family, engine, per_edge):
    # A fit point builds its entries from its weight array, with no ModelParams and so no region
    # check; each row it builds must still pass ModelParams' own. The unit rows, built once
    # before the search, are the outcome forms, on the dual engine as on the quantum engine.
    tree, aln = parse_newick(TRUTH_TREE), w1_alignment
    if family == "B":
        # W1 is DNA: B runs on the same tree's two-state analogue, 2000 sites at seed 31000.
        aln = sampled_alignment(parse_newick(TRUTH_TREE.replace("JC", "B")), 2000, 31000)
    builds, build = [], optimize._entries

    def recorded(name, x, pi, kind):
        builds.append(np.array(x))
        return build(name, x, pi, kind)

    monkeypatch.setattr(optimize, "_entries", recorded)
    maximize_loglik(OptimizationProblem(tree=tree, alignment=aln, family=family, engine=engine,
                                        per_edge=per_edge))
    d = len(FAMILY[family].weights)
    assert np.array_equal(builds[0], np.eye(d))
    points = np.concatenate(builds[1:])
    assert len(points) > 10
    for row in points:
        ModelParams(family, *row, pi=np.full(4, 0.25) if family == "F" else None)


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

    @settings(max_examples=20)
    @given(well_posed_fits())
    def test_random_shared_fits_are_monotone_and_agree(self, case):
        # Every engine runs its own E-step, so their shared fits agree only if each is right.
        tree, aln, family = case
        results = [maximize_loglik(OptimizationProblem(tree=tree, alignment=aln, family=family,
                                                       engine=engine))
                   for engine in ENGINES]
        for result in results:
            logs = [t.loglik for t in result.trace]
            assert all(b >= a - 1e-12 * abs(a) for a, b in zip(logs, logs[1:]))
            assert result.loglik >= max(logs) - 1e-12 * abs(result.loglik)
        w_star = np.array([result.w_star for result in results])
        assert np.abs(w_star - w_star[0]).max() <= 1e-8

    @pytest.mark.parametrize("per_edge", (False, True))
    def test_alignment_without_sites_keeps_the_start_point(self, per_edge):
        aln = Alignment(taxa=("A", "B", "C", "D"), data=np.zeros((4, 0), dtype=int), alphabet=DNA)
        result = maximize_loglik(OptimizationProblem(tree=BALANCED, alignment=aln, family="K2",
                                                     per_edge=per_edge))
        n_blocks = 6 if per_edge else 1
        start = np.repeat(0.1 * (1.0 + 0.5 * np.arange(n_blocks) / n_blocks), 2)
        assert result.w_star == tuple(start.tolist())
        assert result.loglik == 0.0
        assert result.converged

    def test_per_edge_k3_converges_on_the_w1_data(self, tmp_path, capsys):
        # Nelder-Mead stopped here unconverged after 2000 evaluations, at -10374.7039799609.
        (tmp_path / "truth.nwk").write_text(TRUTH_TREE)
        assert cli.main(["simulate", "--tree", str(tmp_path / "truth.nwk"), "--sites", "2000",
                         "--seed", "31000", "--out", str(tmp_path / "w1")]) == 0
        aln = parse_fasta((tmp_path / "w1.fasta").read_text())
        result = maximize_loglik(OptimizationProblem(tree=parse_newick(TRUTH_TREE), alignment=aln,
                                                     family="K3", per_edge=True))
        assert result.converged
        assert result.n_eval <= 400
        assert result.loglik >= -10374.7039799609

    @pytest.mark.parametrize("seed", range(5))
    def test_per_edge_fit_splits_the_root_edges(self, seed):
        # The root edges act only through their composition (the pulley principle), so
        # a fit starting them equal keeps them equal; the truth gives them 0.9 and 0.05.
        truth = parse_newick("((A[&model=B,a=0.1],B[&model=B,a=0.1])[&model=B,a=0.9],"
                             "C[&model=B,a=0.05]);")
        aln = sampled_alignment(truth, 300, seed)
        result = maximize_loglik(OptimizationProblem(tree=truth, alignment=aln, family="B",
                                                     per_edge=True))
        assert result.loglik >= alignment_loglik(truth, aln).total_log_likelihood

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("topology, family, fasta, nelder_mead", (
        pytest.param("(t1:1,(((t2:1,t3:1):1,t4:1):1,t5:1):1);", "K2", "shared_modes_6.fasta",
                     -2078.1445231015614, id="K2"),
        pytest.param("((t1:1,t2:1):1,((t3:1,t4:1):1,t5:1):1);", "B", "shared_modes_38.fasta",
                     -1039.5357566940177, id="B"),
    ))
    def test_shared_fit_reaches_the_mode_past_full_randomisation(self, engine, topology, family,
                                                                 fasta, nelder_mead):
        # 300 sites simulated under random edge weights, some past B's a = 1/2. Started at
        # 0.1 alone, EM stopped 1.263 (K2) and 0.106 (B) below the Nelder-Mead optimum.
        aln = parse_fasta((DATA / fasta).read_text())
        result = maximize_loglik(OptimizationProblem(tree=parse_newick(topology), alignment=aln,
                                                     family=family, engine=engine))
        assert result.converged
        assert result.loglik >= nelder_mead - 1e-9

    @pytest.mark.parametrize("per_edge", (False, True))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reported_loglik_is_the_fitted_trees_exactly(self, engine, per_edge):
        # The fit reports the search's own value at the kept point, with no pass after the
        # search: it must be the fitted tree's alignment_loglik to the last bit.
        aln = simulated_alignment(BALANCED, ModelParams.k2(0.1, 0.05), 200, seed=5)
        result = maximize_loglik(OptimizationProblem(tree=BALANCED, alignment=aln, family="K2",
                                                     engine=engine, per_edge=per_edge))
        w = iter(result.w_star)
        blocks = [ModelParams.k2(a, b) for a, b in zip(w, w)]
        fitted = tree_with_edge_params(BALANCED, blocks if per_edge else blocks * 6)
        assert alignment_loglik(fitted, aln, engine=engine).total_log_likelihood == result.loglik
        assert result.trace[-1].loglik == result.loglik

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reported_loglik_is_exact_when_the_far_start_wins(self, engine):
        # On this data the far start ends higher (see the mode test above), so the kept
        # level is the far climb's.
        topology = parse_newick("((t1:1,t2:1):1,((t3:1,t4:1):1,t5:1):1);")
        aln = parse_fasta((DATA / "shared_modes_38.fasta").read_text())
        result = maximize_loglik(OptimizationProblem(tree=topology, alignment=aln, family="B",
                                                     engine=engine))
        assert result.w_star[0] > 0.5
        fitted = tree_with_shared_params(topology, ModelParams.binary(result.w_star[0]))
        assert alignment_loglik(fitted, aln, engine=engine).total_log_likelihood == result.loglik

    @pytest.mark.parametrize("seed", (1, 2))
    def test_equal_modes_keep_the_first_start(self, seed):
        # Every leaf path of BALANCED has even length, so the shared B likelihood is the
        # same at a and 1 - a; the two starts end within rounding, 1e-13 apart either way.
        aln = simulated_alignment(BALANCED, ModelParams.binary(0.1), 300, seed)
        for engine in ENGINES:
            result = maximize_loglik(OptimizationProblem(tree=BALANCED, alignment=aln, family="B",
                                                         engine=engine))
            assert result.w_star[0] < 0.5

    def test_unknown_family_is_refused(self):
        aln = Alignment(taxa=("A", "B"), data=np.zeros((2, 3), dtype=int), alphabet=DNA)
        with pytest.raises(ModelError, match=r"^unknown model family 'HKY'$"):
            maximize_loglik(OptimizationProblem(tree=CHERRY, alignment=aln, family="HKY"))

    def test_unknown_engine_is_refused(self):
        aln = Alignment(taxa=("A", "B"), data=np.zeros((2, 3), dtype=int), alphabet=DNA)
        with pytest.raises(ModelError, match=r"^unknown engine 'foo'"):
            maximize_loglik(OptimizationProblem(tree=CHERRY, alignment=aln, family="JC", engine="foo"))

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
        assert {"family", "engine", "seed", "w_star", "log_likelihood",
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
