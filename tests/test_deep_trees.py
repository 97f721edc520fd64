"""Trees deeper than the interpreter's recursion limit, run at the default limit.

A caterpillar tree with s leaves is s - 1 levels deep, so every consumer
that walked the tree by recursion would fail on it.
"""

import sys

import numpy as np
import pytest

from qphylo import cli
from qphylo.engine import ENGINES, alignment_loglik
from qphylo.errors import NewickParseError
from qphylo.models import ModelParams
from qphylo.optimize import tree_with_shared_params
from qphylo.treeio import (DNA, Alignment, EvolveGate, SplitGate, compile_circuit, emit_newick,
                           parse_newick)

N_LEAVES = 2 * sys.getrecursionlimit()


def caterpillar(n: int) -> str:
    """Canonical text of ((..((t0,t1),t2)..),t{n-1}): every left child internal."""
    body = "(" * (n - 1) + "t0:0.1" + "".join(f",t{i}:0.1):0.05" for i in range(1, n))
    return body[:-len(":0.05")] + ";"


TEXT = caterpillar(N_LEAVES)


@pytest.fixture(scope="module")
def tree():
    return parse_newick(TEXT)


@pytest.fixture(scope="module")
def alignment():
    data = np.random.default_rng(5).integers(0, 4, size=(N_LEAVES, 3))
    return Alignment(taxa=tuple(f"t{i}" for i in range(N_LEAVES)), data=data, alphabet=DNA)


def test_parse_and_emit_round_trip(tree):
    assert tree.n_leaves == N_LEAVES
    assert emit_newick(tree) == TEXT
    assert emit_newick(parse_newick(emit_newick(tree))) == TEXT


def test_equality_and_hash_do_not_recurse(tree):
    again = parse_newick(TEXT)
    assert again == tree and again.root == tree.root
    assert hash(again) == hash(tree) and hash(again.root) == hash(tree.root)
    deeper = parse_newick(TEXT.replace("t0:0.1", "t0:0.2", 1))
    assert deeper != tree and deeper.root != tree.root


def test_compile_circuit(tree):
    gates = compile_circuit(tree)
    assert sum(isinstance(g, SplitGate) for g in gates) == N_LEAVES - 1
    assert sum(isinstance(g, EvolveGate) for g in gates) == 2 * N_LEAVES - 2


def test_tree_with_shared_params(tree):
    params = ModelParams.jc(0.05)
    shared = tree_with_shared_params(tree, params)
    assert shared.leaf_names == tree.leaf_names
    assert all(node.params == params and node.annotated for node in shared.nodes[1:])


def test_engines_agree(tree, alignment):
    totals = [alignment_loglik(tree, alignment, engine=e).total_log_likelihood for e in ENGINES]
    assert np.isfinite(totals).all()
    assert max(totals) - min(totals) < 1e-8


def test_cli_likelihood_exits_zero(tmp_path, tree, alignment):
    tree_path = tmp_path / "deep.nwk"
    tree_path.write_text(TEXT)
    fasta = tmp_path / "deep.fasta"
    fasta.write_text("".join(f">{name}\n{alignment.sequence(name)}\n" for name in alignment.taxa))
    assert cli.main(["likelihood", "--tree", str(tree_path), "--alignment", str(fasta)]) == 0


def test_deep_unclosed_nesting_is_a_parse_error(tmp_path):
    text = "(" * 3000
    with pytest.raises(NewickParseError) as err:
        parse_newick(text)
    assert err.value.offset == 3000
    path = tmp_path / "open.nwk"
    path.write_text(text)
    code = cli.main(["simulate", "--tree", str(path), "--sites", "1", "--seed", "0",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_PARSE
