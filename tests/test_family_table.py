"""What each model family takes, pinned family by family.

The ModelParams signature errors, the Newick reader's annotation errors,
the annotation round trip and the flip weights are compared with literal
values or the construction they replaced, so a change to how the families
are declared cannot move any of them. The README's family table is checked
against ``FAMILY``.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qphylo.errors import ModelError, NewickParseError
from qphylo.models import FAMILIES, FAMILY, ModelParams, flip_weights
from qphylo.treeio import emit_newick, parse_newick

SIGNATURES = {"JC": "(a)", "K2": "(a, b)", "K3": "(a, b, c)", "B": "(a)", "F": "(a, pi)"}
SHAPES = {"JC": (False, False, False), "K2": (True, False, False), "K3": (True, True, False),
          "B": (False, False, False), "F": (False, False, True)}
PI = [0.1, 0.2, 0.3, 0.4]

# One annotation per family missing one of its keys, with its message.
MISSING = {
    "JC": ("[&model=JC]", "model JC needs a="),
    "K2": ("[&model=K2,a=0.1]", "model K2 needs b="),
    "K3": ("[&model=K3,a=0.1,b=0.2]", "model K3 needs c="),
    "B": ("[&model=B]", "model B needs a="),
    "F": ("[&model=F,pi={0.1,0.2,0.3,0.4}]", "model F needs a="),
}

OTHER_ERRORS = [
    ("[&model=F,a=0.5]", "model F needs pi={...}"),
    ("[&model=JC,a=0.1,t=0.2]", "model JC takes a= or t=, not both"),
    ("[&model=B,t=0.2,a=0.1]", "model B takes a= or t=, not both"),
    ("[&model=HKY,a=0.1]", "unknown model family 'HKY'"),
    ("[&a=0.1]", "edge annotation needs a model= entry"),
    ("[&model=K2,a=0.1,b=x]", "annotation b= must be a number, got 'x'"),
    ("[&model=K3,a=0.5,b=0.3,c=0.3]",
     "invalid model parameters: K3 weights exceed the simplex: identity weight -0.10000000000000009"),
    ("[&model=F,a=0.5,pi={0.5,0.5}]",
     "invalid model parameters: F needs a length-4 stationary distribution, got shape (2,)"),
]

ROUND_TRIP = {
    "JC": "(A[&model=JC,a=0.1],B[&model=JC,t=0.2]);",
    "K2": "(A[&model=K2,a=0.1,b=0.2],B[&model=K2,a=0.0,b=0.5]);",
    "K3": "(A[&model=K3,a=0.1,b=0.2,c=0.3],B[&model=K3,a=0.25,b=0.25,c=0.25]);",
    "B": "(A[&model=B,a=0.1],B[&model=B,t=0.2]);",
    "F": "(A[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}],B[&model=F,a=1.0,pi={0.25,0.25,0.25,0.25}]);",
}


def test_every_family_is_pinned():
    for table in (SIGNATURES, SHAPES, MISSING, ROUND_TRIP):
        assert tuple(table) == FAMILIES


@pytest.mark.parametrize("family", FAMILIES)
def test_signature_errors(family):
    """Every shape of (b, c, pi) but the family's own is refused with the same message."""
    for have in np.ndindex(2, 2, 2):
        have = tuple(map(bool, have))
        if have == SHAPES[family]:
            continue
        b, c, pi = (value if given else None for value, given in zip((0.2, 0.3, PI), have))
        with pytest.raises(ModelError) as err:
            ModelParams(family, 0.1, b, c, pi=pi)
        assert str(err.value) == (f"{family} takes parameters {SIGNATURES[family]}, "
                                  f"got a=0.1, b={b}, c={c}, pi={pi}")


@pytest.mark.parametrize("family", FAMILIES)
def test_missing_key_error(family):
    annotation, message = MISSING[family]
    with pytest.raises(NewickParseError) as err:
        parse_newick(f"(A:0.1,B{annotation});")
    assert str(err.value) == f"{message} (at offset 7)"
    assert err.value.offset == 7


@pytest.mark.parametrize("annotation, message", OTHER_ERRORS)
def test_annotation_errors(annotation, message):
    with pytest.raises(NewickParseError) as err:
        parse_newick(f"(A:0.1,B{annotation});")
    assert type(err.value) is NewickParseError
    assert str(err.value) == f"{message} (at offset 7)"
    assert err.value.offset == 7


@pytest.mark.parametrize("family", FAMILIES)
def test_annotation_round_trip(family):
    tree = parse_newick(ROUND_TRIP[family])
    assert {node.params.family for node in tree.nodes[1:]} == {family}
    text = emit_newick(tree)
    again = parse_newick(text)
    assert [n.params for n in again.nodes[1:]] == [n.params for n in tree.nodes[1:]]
    assert emit_newick(again) == text


def test_readme_family_table_matches_the_family_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]*)`( \(or `t`\))? +\| (\d+) +\|", readme, re.MULTILINE)
    assert tuple(row[0] for row in rows) == FAMILIES
    for name, params, or_t, states in rows:
        family = FAMILY[name]
        assert tuple(params.split(", ")) == family.weights + ("pi",) * family.takes_pi
        assert bool(or_t) == (family.from_length is not None)
        assert int(states) == family.n_states


FLIP_FAMILIES = ("JC", "K2", "K3", "B")


def table_flip_weights(params: ModelParams) -> np.ndarray:
    """The reference construction of the flip weights: B as (1 - a, a), the
    4-state families as the 2x2 table lam[k, l] of the flip X^k (x) X^l,
    flattened and clipped at 0."""
    if params.family == "B":
        return np.array([1.0 - params.a, params.a])
    given = (params.a, params.b, params.c)
    a, b, c = (given[i] for i in FAMILY[params.family].flips)
    lam = np.zeros((2, 2))
    lam[0, 0] = 1.0 - a - b - c
    lam[1, 0] = a
    lam[0, 1] = b
    lam[1, 1] = c
    return np.clip(lam, 0.0, None).reshape(4)


@st.composite
def flip_params(draw):
    """Any point of a flip family's region, up to the weights' rounding."""
    family = draw(st.sampled_from(FLIP_FAMILIES))
    room, given = 1.0, []
    for drives in np.bincount(FAMILY[family].flips):
        x = draw(st.floats(0.0, max(room / drives, 0.0)))
        given.append(x)
        room -= drives * x
    return ModelParams(family, *given)


@settings(max_examples=300)
@given(flip_params())
@example(ModelParams.k3(0.5, 0.5, 1e-13))
@example(ModelParams.jc(1.0 / 3.0))
@example(ModelParams.binary(0.0))
@example(ModelParams.binary(1.0))
def test_flip_weights_match_the_weight_table(params):
    assert flip_weights(params).tobytes() == table_flip_weights(params).tobytes()
