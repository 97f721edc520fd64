"""Acceptance criteria, one test per criterion, at their pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same bounds. Everything is seeded and deterministic.
"""

import itertools
import json

import numpy as np
import pytest

from qphylo import cli, linalg
from qphylo.channels import DiagonalDensity, control_not, split
from qphylo.engine import alignment_loglik, simulate_tree
from qphylo.linalg import ProbabilityTensor
from qphylo.models import ModelParams, bitflip_unitary, flip_weights, markov
from qphylo.qwalk import WalkConfig, closed_form_two_taxon, coin_distribution, evolve_taxa_qw
from qphylo.treeio import DNA, Alignment, TreeNode, PhyloTree, parse_newick
from qphylo.verify import (random_params, suite_dilation_unitarity, suite_dilation_vs_channel,
                           suite_flip_generators, suite_fourier_equivalence,
                           suite_pruning_equivalence)

from conftest import random_unitary

RNG_SEED = 20240809


def report(number, name, deviation, tolerance):
    ok = deviation < tolerance
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} "
          f"max deviation {deviation:.3e} vs tolerance {tolerance:g}")
    return ok


def test_criterion_1_splitting_matches_full_conjugation():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for i in range(200):
        m = 2 if i % 2 else 4
        rho = DiagonalDensity.from_block(rng.dirichlet(np.ones(m)))
        tensor = split(rho)
        n = m + 1
        ucn = control_not(n)
        joint = linalg.adjoint_action(ucn, linalg.kron(rho.matrix(), linalg.projector(0, n)))
        diag = np.diag(joint).real.reshape(n, n)
        worst = max(worst, np.abs(diag[1:, 1:] - tensor.values).max())
        worst = max(worst, np.abs(diag[0, :]).max(), np.abs(diag[:, 0]).max())
        expected = np.diag(rho.block)
        worst = max(worst, np.abs(tensor.values - expected).max())
    assert report(1, "splitting correctness", worst, 1e-13)


def test_criterion_2_markov_weight_sum_identity():
    rng = np.random.default_rng(RNG_SEED + 2)
    worst_identity = 0.0
    worst_column = 0.0
    worst_double = 0.0
    for family in ("JC", "K2", "K3", "B", "F"):
        for _ in range(100):
            params = random_params(rng, family)
            m = markov(params)
            worst_column = max(worst_column, np.abs(m.sum(axis=0) - 1.0).max())
            if family in ("JC", "K2", "K3"):
                w = flip_weights(params)
                total = np.zeros((4, 4))
                for k in (0, 1):
                    for l in (0, 1):
                        u = bitflip_unitary(k, l)
                        total += w[2 * k + l] * (u * u.conj()).real
                worst_identity = max(worst_identity, np.abs(m - total).max())
            if family != "F":
                worst_double = max(worst_double, np.abs(m.sum(axis=1) - 1.0).max())
    ok = report(2, "model weight-sum identity", worst_identity, 1e-14)
    ok &= report(2, "column stochasticity", worst_column, 1e-12)
    ok &= report(2, "double stochasticity (group families)", worst_double, 1e-12)
    assert ok


def test_criterion_3_dilation_equivalence():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst_action = suite_dilation_vs_channel(rng, draws=50, densities=20).max_deviation
    worst_generator = suite_flip_generators().max_deviation
    worst_unitarity = suite_dilation_unitarity(rng, draws=50).max_deviation
    ok = report(3, "dilation vs channel action", worst_action, 1e-12)
    ok &= report(3, "dilation unitarity", worst_unitarity, 1e-14)
    ok &= report(3, "generator exponentials", worst_generator, 1e-10)
    assert ok


def test_criterion_4_diagonalizer_representations():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst = suite_fourier_equivalence(rng, samples=50).max_deviation
    assert report(4, "diagonalizer representations", worst, 1e-12)


def test_criterion_5_quantum_walk_closed_form():
    rng = np.random.default_rng(RNG_SEED + 5)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    worst_conv = 0.0
    worst_sum = 0.0
    worst_neg = 0.0
    for i in range(100):
        n = (2, 3, 4, 5)[i % 4]
        label = "+" if i % 2 else "-"
        coin = hadamard if i % 3 == 0 else random_unitary(rng, 2)
        q = coin_distribution(coin, label, n)
        worst_sum = max(worst_sum, abs(q.sum() - 1.0))
        worst_neg = max(worst_neg, max(0.0, -q.min()))
        tensor = ProbabilityTensor(rng.dirichlet(np.ones(n * n)).reshape(n, n))
        cfg = WalkConfig.with_label(coin, label, steps=2, walker_dim=n)
        sim = evolve_taxa_qw(tensor, [cfg, cfg])
        closed = closed_form_two_taxon(tensor, q)
        worst_conv = max(worst_conv, np.abs(sim.values - closed.values).max())
    ok = report(5, "closed form vs walk simulation", worst_conv, 1e-12)
    ok &= report(5, "shift distribution mass", worst_sum, 1e-12)
    ok &= report(5, "shift distribution positivity", worst_neg, 1e-14)
    assert ok


def test_criterion_6_felsenstein_uniform_limit():
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 50):
        mf = markov(ModelParams.felsenstein(a, np.full(4, 0.25)))
        mjc = markov(ModelParams.jc((1.0 - a) / 4.0))
        worst = max(worst, np.abs(mf - mjc).max())
    assert report(6, "uniform-limit reduction", worst, 1e-14)


def test_criterion_7_pruning_engine_equivalence():
    rng = np.random.default_rng(RNG_SEED + 7)
    worst = suite_pruning_equivalence(rng, instances=200, max_leaves=8).max_deviation
    assert report(7, "classical vs quantum and dual pruning", worst, 1e-8)


def test_criterion_8_simulation_likelihood_duality():
    rng = np.random.default_rng(RNG_SEED + 8)

    def edge(leafname=None, children=()):
        family = ("JC", "K2", "K3", "F")[int(rng.integers(0, 4))]
        return TreeNode(name=leafname, children=children, params=random_params(rng, family),
                        annotated=True)

    left = edge(children=(edge("A"), edge("B")))
    right = edge(children=(edge("C"), edge("D")))
    tree = PhyloTree(root=TreeNode(children=(left, right)))
    tensor = simulate_tree(tree)
    worst = 0.0
    total = 0.0
    for pattern in itertools.product(range(4), repeat=4):
        aln = Alignment(taxa=tree.leaf_names, data=np.array(pattern).reshape(4, 1), alphabet=DNA)
        value = np.exp(alignment_loglik(tree, aln).total_log_likelihood)
        worst = max(worst, abs(value - tensor.values[pattern]))
        total += value
    ok = report(8, "pattern/likelihood duality", worst, 1e-10)
    ok &= report(8, "pattern mass", abs(total - 1.0), 1e-10)
    assert ok


TRUTH_TREE = ("((A[&model=JC,a=0.1],B[&model=JC,a=0.1])[&model=JC,a=0.1],"
              "(C[&model=JC,a=0.1],D[&model=JC,a=0.1])[&model=JC,a=0.1]);")


def test_criterion_9_parameter_recovery(tmp_path):
    tree_path = tmp_path / "truth.nwk"
    tree_path.write_text(TRUTH_TREE)
    in_range = 0
    worst_cross = 0.0
    estimates = []
    for rep in range(20):
        seed = 31000 + rep
        out = tmp_path / f"rep{rep}"
        assert cli.main(["simulate", "--tree", str(tree_path), "--sites", "2000",
                         "--seed", str(seed), "--out", str(out)]) == 0
        fasta = str(out) + ".fasta"
        fits = {}
        for engine in ("classical", "quantum"):
            fit_path = tmp_path / f"fit{rep}_{engine}.json"
            assert cli.main(["optimize", "--tree", str(tree_path), "--alignment", fasta,
                             "--family", "JC", "--engine", engine, "--seed", str(seed),
                             "--out", str(fit_path)]) == 0
            fits[engine] = json.loads(fit_path.read_text())["w_star"]["a"]
        estimates.append(fits["classical"])
        if 0.08 <= fits["classical"] <= 0.12:
            in_range += 1
        worst_cross = max(worst_cross, abs(fits["classical"] - fits["quantum"]))
    ok = in_range >= 19
    print(f"criterion 9 (parameter recovery): {'PASS' if ok else 'FAIL'} "
          f"{in_range}/20 replicates in [0.08, 0.12], estimates span "
          f"[{min(estimates):.4f}, {max(estimates):.4f}]")
    ok_cross = report(9, "classical vs quantum estimates", worst_cross, 1e-4)
    assert ok and ok_cross


def test_criterion_10_determinism(tmp_path, capsys):
    tree_path = tmp_path / "tree.nwk"
    tree_path.write_text(TRUTH_TREE)
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.main(["simulate", "--tree", str(tree_path), "--sites", "500",
                         "--seed", "77", "--out", str(out)]) == 0
        stdout_sim = capsys.readouterr().out.replace(run, "<run>")
        fit = tmp_path / f"{run}.json"
        assert cli.main(["optimize", "--tree", str(tree_path), "--alignment", str(out) + ".fasta",
                         "--family", "JC", "--seed", "77", "--out", str(fit)]) == 0
        stdout_opt = capsys.readouterr().out.replace(run, "<run>")
        outputs.append((
            (tmp_path / (run + ".fasta")).read_bytes(),
            (tmp_path / (run + ".patterns.json")).read_bytes(),
            fit.read_bytes(),
            stdout_sim,
            stdout_opt,
        ))
    ok = outputs[0] == outputs[1]
    print(f"criterion 10 (determinism): {'PASS' if ok else 'FAIL'} "
          f"byte-identical outputs across reruns")
    assert ok
