"""The gate-level references: the simulation circuit and the pruning map on dense operators.

Each suite must pass as shipped and fail when one of its gates is swapped.
"""

import numpy as np
import pytest

from qphylo import linalg, models, verify
from qphylo.channels import KrausChannel
from qphylo.treeio import PhyloTree, TreeNode
from qphylo.verify import (dense_pruning, gate_circuit_deviations, random_params,
                           suite_dense_pruning, suite_gate_circuit)

from conftest import one_stack

SEED = 20240907


def mixed_four_leaf_tree(rng):
    """A balanced 4-leaf tree whose edges draw JC, K2, K3 or F at random."""

    def edge(name=None, children=()):
        family = ("JC", "K2", "K3", "F")[int(rng.integers(0, 4))]
        return TreeNode(name=name, children=children, params=random_params(rng, family),
                        annotated=True)

    left = edge(children=(edge("A"), edge("B")))
    right = edge(children=(edge("C"), edge("D")))
    return PhyloTree(root=TreeNode(children=(left, right)))


def test_default_level_suites_pass():
    rng = np.random.default_rng(SEED)
    assert suite_gate_circuit(rng).passed
    assert suite_dense_pruning(rng).passed


def _offset_channel(monkeypatch, offset):
    real = verify.apply_channel
    monkeypatch.setattr(verify, "apply_channel", lambda ch, rho: real(ch, rho) + offset)


def test_dilation_suite_reports_the_offset_of_a_perturbed_channel(monkeypatch):
    _offset_channel(monkeypatch, 1e-3)
    result = verify.suite_dilation_vs_channel(np.random.default_rng(SEED), draws=5, densities=3)
    assert not result.passed
    assert abs(result.max_deviation - 1e-3) < 1e-12


def test_perturbed_channel_draws_the_same_random_numbers(monkeypatch):
    shipped, perturbed = np.random.default_rng(SEED), np.random.default_rng(SEED)
    verify.suite_dilation_vs_channel(shipped, draws=5, densities=3)
    _offset_channel(monkeypatch, 1e-3)
    verify.suite_dilation_vs_channel(perturbed, draws=5, densities=3)
    assert shipped.bit_generator.state == perturbed.bit_generator.state


def test_mixed_four_leaf_circuit_keeps_null_and_coherences_empty():
    tree = mixed_four_leaf_tree(np.random.default_rng(SEED))
    assert {node.params.family for node in tree.nodes[1:]} >= {"JC", "F"}
    deviation, null_mass, off_diagonal = gate_circuit_deviations(tree)
    assert deviation <= 1e-12
    assert null_mass <= 1e-14
    assert off_diagonal <= 1e-14


def test_dense_pruning_reads_sites_by_taxon_name():
    rng = np.random.default_rng(SEED)
    tree, aln = verify.random_instance(rng, 3, "K3", n_sites=3)
    flipped = type(aln)(taxa=aln.taxa[::-1], data=aln.data[::-1], alphabet=aln.alphabet)
    assert np.array_equal(dense_pruning(tree, aln), dense_pruning(tree, flipped))


def test_dense_references_keep_complex_operators():
    # The engines run real families in float64; the gate-level references
    # stay complex, so the dense suites compare the two fields.
    rng = np.random.default_rng(SEED)
    for family in models.FAMILIES:
        params = random_params(rng, family)
        assert verify._null_fixed(one_stack(params)).dtype == np.complex128
        assert verify._edge_gate(params).dtype == np.complex128


def _identity_pinch(n):
    return KrausChannel((linalg.identity(n * n),))


def _adjoint_prune_operators(family, x, pi=None):
    return models.prune_operators(family, x, pi).conj().transpose(0, 1, 3, 2)


@pytest.mark.parametrize("name, swap", [
    ("binary_dilation", lambda p: models.binary_dilation(models.ModelParams.binary(1.0 - p.a))),
    ("control_not", lambda n: linalg.identity(n * n)),
    ("prune_operators", _adjoint_prune_operators),
], ids=["binary_dilation", "control_not", "prune_operators"])
def test_circuit_suite_fails_with_one_gate_swapped(monkeypatch, name, swap):
    monkeypatch.setattr(verify, name, swap)
    assert not suite_gate_circuit(np.random.default_rng(SEED)).passed


@pytest.mark.parametrize("name, swap", [
    ("collective_diagonalizer", _identity_pinch),
    ("prune_operators", _adjoint_prune_operators),
], ids=["collective_diagonalizer", "prune_operators"])
def test_pruning_suite_fails_with_one_gate_swapped(monkeypatch, name, swap):
    monkeypatch.setattr(verify, name, swap)
    assert not suite_dense_pruning(np.random.default_rng(SEED)).passed
