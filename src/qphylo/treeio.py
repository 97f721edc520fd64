"""Tree and alignment ingestion, plus compilation to a gate schedule.

Newick trees carry per-edge model parameters in comment blocks, e.g.
``(A:0.1[&model=K3,a=0.1,b=0.2,c=0.3],B:0.1);``. A bare branch length means
the 4-state one-parameter model at that length; the root may carry a
stationary distribution as ``[&pi={...}]`` and defaults to uniform.
Alignments are plain FASTA over A/C/G/T, or 0/1 for two-state runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import FastaParseError, ModelError, NewickParseError, ShapeMismatchError
from .models import ModelParams, binary_from_branch_length, jc_from_branch_length

_NAME_CHARS = re.compile(r"[A-Za-z0-9_.\-|]")
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


@dataclass(frozen=True)
class Alphabet:
    name: str
    symbols: tuple

    @property
    def n_states(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise FastaParseError(f"character {symbol!r} not in {self.name} alphabet {self.symbols}") from None


DNA = Alphabet("dna", ("A", "C", "G", "T"))
BINARY = Alphabet("binary", ("0", "1"))


def alphabet_for_states(n_states: int) -> Alphabet:
    if n_states == 4:
        return DNA
    if n_states == 2:
        return BINARY
    raise ModelError(f"no alphabet with {n_states} states")


@dataclass(frozen=True)
class TreeNode:
    """One tree node; ``params`` describe the edge up to the parent."""

    name: str | None = None
    children: tuple = ()
    params: ModelParams | None = None
    length: float | None = None
    annotated: bool = False  # params came from an explicit comment block

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


@dataclass(frozen=True)
class PhyloTree:
    """Rooted binary tree with per-edge model parameters.

    ``root_pi`` is the stationary distribution over the non-null characters
    used at the root; None means uniform.
    """

    root: TreeNode
    root_pi: np.ndarray | None = None

    def __post_init__(self):
        if self.root.is_leaf:
            raise NewickParseError("tree needs at least two leaves")
        states = set()

        def check(node: TreeNode, is_root: bool) -> None:
            if not is_root:
                if node.params is None:
                    raise ModelError(f"edge above {node.name or 'internal node'} has no model parameters")
                states.add(node.params.n_states)
            if node.is_leaf:
                if not node.name:
                    raise NewickParseError("leaf without a name")
                return
            if len(node.children) != 2:
                raise NewickParseError(
                    f"non-binary node {node.name or ''!r} with {len(node.children)} children")
            for child in node.children:
                check(child, False)

        check(self.root, True)
        names = [leaf.name for leaf in self.root.leaves()]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise NewickParseError(f"duplicate leaf labels {sorted(dup)}")
        if len(states) > 1:
            raise ModelError("edges mix 2-state and 4-state model families")
        if self.root_pi is not None:
            try:
                pi = linalg.validate_probability_vector(np.asarray(self.root_pi, dtype=float))
            except ValueError as exc:
                raise ModelError(f"root distribution: {exc}") from None
            if pi.size != self.n_states:
                raise ModelError(f"root distribution has {pi.size} entries for {self.n_states} states")
            pi = pi.copy()
            pi.setflags(write=False)
            object.__setattr__(self, "root_pi", pi)

    @property
    def n_states(self) -> int:
        for leaf in self.root.leaves():
            return leaf.params.n_states
        raise ModelError("tree has no edges")

    @property
    def leaf_names(self) -> tuple:
        return tuple(leaf.name for leaf in self.root.leaves())

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_names)

    @property
    def pi(self) -> np.ndarray:
        if self.root_pi is not None:
            return self.root_pi
        n = self.n_states
        return np.full(n, 1.0 / n)

    @property
    def alphabet(self) -> Alphabet:
        return alphabet_for_states(self.n_states)


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise NewickParseError(f"expected {ch!r}", offset=self.pos)
        self.pos += 1

    def name(self) -> str | None:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _NAME_CHARS.match(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise NewickParseError("expected a number", offset=self.pos)
        self.pos = m.end()
        return float(m.group(0))

    def comment(self) -> dict:
        start = self.pos
        self.take("[")
        if self.peek() != "&":
            raise NewickParseError("comment must start with '[&'", offset=start)
        self.pos += 1
        depth = 0
        begin = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            elif ch == "]" and depth == 0:
                body = self.text[begin:self.pos]
                self.pos += 1
                return _parse_annotation(body, begin)
            self.pos += 1
        raise NewickParseError("unterminated comment", offset=start)


def _parse_annotation(body: str, offset: int) -> dict:
    out = {}
    depth = 0
    item = []
    items = []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(item))
            item = []
        else:
            item.append(ch)
    items.append("".join(item))
    for entry in items:
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise NewickParseError(f"annotation entry {entry!r} is not key=value", offset=offset)
        key, value = entry.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in out:
            raise NewickParseError(f"duplicate annotation key {key!r}", offset=offset)
        if value.startswith("{") and value.endswith("}"):
            try:
                out[key] = tuple(float(x) for x in value[1:-1].split(","))
            except ValueError:
                raise NewickParseError(f"annotation {key}={value} is not a list of numbers",
                                       offset=offset) from None
        else:
            out[key] = value
    return out


def _params_from_annotation(ann: dict, length: float | None, offset: int) -> ModelParams:
    family = ann.get("model")
    if family is None:
        raise NewickParseError("edge annotation needs a model= entry", offset=offset)
    def num(key):
        if key not in ann:
            raise NewickParseError(f"model {family} needs {key}=", offset=offset)
        try:
            return float(ann[key])
        except (TypeError, ValueError):
            raise NewickParseError(f"annotation {key}= must be a number, got {ann[key]!r}",
                                   offset=offset) from None
    try:
        if family in ("JC", "B"):
            if "t" in ann and "a" in ann:
                raise NewickParseError(f"model {family} takes a= or t=, not both", offset=offset)
            if "t" in ann:
                t = num("t")
                return jc_from_branch_length(t) if family == "JC" else binary_from_branch_length(t)
            a = num("a")
            return ModelParams.jc(a) if family == "JC" else ModelParams.binary(a)
        if family == "K2":
            return ModelParams.k2(num("a"), num("b"))
        if family == "K3":
            return ModelParams.k3(num("a"), num("b"), num("c"))
        if family == "F":
            if not isinstance(ann.get("pi"), tuple):
                raise NewickParseError("model F needs pi={...}", offset=offset)
            return ModelParams.felsenstein(num("a"), ann["pi"])
    except ModelError as exc:
        raise NewickParseError(f"invalid model parameters: {exc}", offset=offset) from exc
    raise NewickParseError(f"unknown model family {family!r}", offset=offset)


@dataclass
class _RawNode:
    """Structural parse result, before model parameters are resolved."""

    offset: int
    name: str | None = None
    children: tuple = ()
    length: float | None = None
    annotation: dict | None = None


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree; errors carry the byte offset of the failure.

    The structure is parsed and validated (binary nodes, named leaves)
    before edge parameters are resolved, so a shape error is reported even
    when deeper annotations are also missing.
    """
    cur = _Cursor(text)
    raw = _parse_raw(cur)
    cur.take(";")
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise NewickParseError("trailing text after ';'", offset=cur.pos)
    _check_shape(raw)
    ann = raw.annotation
    if ann and set(ann) - {"pi"}:
        raise NewickParseError("root annotation may only set pi={...}", offset=raw.offset)
    if ann and not isinstance(ann["pi"], tuple):
        raise NewickParseError("root annotation needs pi={...}", offset=raw.offset)
    root_pi = np.asarray(ann["pi"], dtype=float) if ann else None
    root = TreeNode(name=raw.name, children=tuple(_resolve(c) for c in raw.children),
                    params=None, length=raw.length)
    return PhyloTree(root=root, root_pi=root_pi)


def _parse_raw(cur: _Cursor) -> _RawNode:
    start = cur.pos
    children = ()
    if cur.peek() == "(":
        cur.take("(")
        kids = [_parse_raw(cur)]
        while cur.peek() == ",":
            cur.take(",")
            kids.append(_parse_raw(cur))
        cur.take(")")
        children = tuple(kids)

    name = cur.name()
    length = None
    ann = None
    while True:
        ch = cur.peek()
        if ch == ":" and length is None:
            cur.take(":")
            length = cur.number()
        elif ch == "[" and ann is None:
            ann = cur.comment()
        else:
            break
    if not children and name is None:
        raise NewickParseError("leaf without a name", offset=start)
    return _RawNode(offset=start, name=name, children=children, length=length, annotation=ann)


def _check_shape(raw: _RawNode) -> None:
    if raw.children and len(raw.children) != 2:
        raise NewickParseError(f"non-binary node with {len(raw.children)} children", offset=raw.offset)
    for child in raw.children:
        _check_shape(child)


def _resolve(raw: _RawNode) -> TreeNode:
    if raw.annotation is not None:
        params = _params_from_annotation(raw.annotation, raw.length, raw.offset)
        annotated = True
    elif raw.length is not None:
        params = jc_from_branch_length(raw.length)
        annotated = False
    else:
        raise NewickParseError("edge needs a branch length or a model annotation", offset=raw.offset)
    children = tuple(_resolve(c) for c in raw.children)
    return TreeNode(name=raw.name, children=children, params=params, length=raw.length, annotated=annotated)


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_annotation(params: ModelParams) -> str:
    parts = [f"model={params.family}", f"a={_format_float(params.a)}"]
    if params.b is not None:
        parts.append(f"b={_format_float(params.b)}")
    if params.c is not None:
        parts.append(f"c={_format_float(params.c)}")
    if params.pi is not None:
        parts.append("pi={" + ",".join(_format_float(p) for p in params.pi) + "}")
    return "[&" + ",".join(parts) + "]"


def emit_newick(tree: PhyloTree) -> str:
    """Canonical Newick text; inverse of parse_newick on canonical strings."""

    def emit(node: TreeNode, is_root: bool) -> str:
        out = ""
        if node.children:
            out += "(" + ",".join(emit(c, False) for c in node.children) + ")"
        if node.name:
            out += node.name
        if node.length is not None:
            out += ":" + _format_float(node.length)
        if not is_root and node.annotated:
            out += _format_annotation(node.params)
        return out

    text = emit(tree.root, True)
    if tree.root_pi is not None:
        text += "[&pi={" + ",".join(_format_float(p) for p in tree.root_pi) + "}]"
    return text + ";"


@dataclass(frozen=True)
class Alignment:
    """Character matrix over the non-null alphabet, one row per taxon."""

    taxa: tuple
    data: np.ndarray  # (n_taxa, n_sites) integer character indices
    alphabet: Alphabet

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] != len(self.taxa):
            raise ShapeMismatchError(f"data shape {data.shape} does not match {len(self.taxa)} taxa")
        if data.size and (data.min() < 0 or data.max() >= self.alphabet.n_states):
            raise FastaParseError("character index out of alphabet range")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "taxa", tuple(self.taxa))

    @property
    def n_taxa(self) -> int:
        return len(self.taxa)

    @property
    def n_sites(self) -> int:
        return self.data.shape[1]

    def sequence(self, taxon: str) -> str:
        row = self.data[self.taxa.index(taxon)]
        return "".join(self.alphabet.symbols[i] for i in row)

    def site_patterns(self):
        """Unique site columns with counts and the site -> pattern map."""
        columns = self.data.T
        patterns, inverse, counts = np.unique(columns, axis=0, return_inverse=True, return_counts=True)
        return patterns, counts, inverse


def parse_fasta(text: str) -> Alignment:
    """Parse FASTA into an alignment; lowercase accepted, gaps rejected."""
    taxa = []
    seqs = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            name = line[1:].strip().split()[0] if line[1:].strip() else ""
            if not name:
                raise FastaParseError(f"empty record name on line {lineno}")
            if name in taxa:
                raise FastaParseError(f"duplicate record {name!r} on line {lineno}")
            taxa.append(name)
            seqs.append([])
            current = seqs[-1]
        else:
            if current is None:
                raise FastaParseError(f"sequence data before any '>' header on line {lineno}")
            current.append(line.upper())
    if not taxa:
        raise FastaParseError("no records found")
    joined = ["".join(parts) for parts in seqs]
    lengths = {len(s) for s in joined}
    if len(lengths) != 1:
        raise FastaParseError(f"records have unequal lengths {sorted(lengths)}")
    if lengths == {0}:
        raise FastaParseError("records are empty")
    chars = set("".join(joined))
    if chars <= set(BINARY.symbols):
        alphabet = BINARY
    elif chars <= set(DNA.symbols):
        alphabet = DNA
    else:
        bad = sorted(chars - set(DNA.symbols) - set(BINARY.symbols))
        raise FastaParseError(f"unsupported characters {bad} (gaps/ambiguity codes are rejected)")
    data = np.array([[alphabet.index(ch) for ch in seq] for seq in joined], dtype=np.int64)
    return Alignment(taxa=tuple(taxa), data=data, alphabet=alphabet)


@dataclass(frozen=True)
class SplitGate:
    slot: int


@dataclass(frozen=True)
class EvolveGate:
    slot: int
    params: ModelParams
    edge: str = ""


@dataclass(frozen=True)
class CircuitSchedule:
    """Ordered gate list turning one root lineage into the leaf pattern state."""

    gates: tuple
    leaf_names: tuple

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_names)

    def validate(self) -> None:
        """No gate may touch a slot that does not exist yet."""
        width = 1
        for gate in self.gates:
            if not 1 <= gate.slot <= width:
                raise ShapeMismatchError(f"{gate} touches slot {gate.slot} at width {width}")
            if isinstance(gate, SplitGate):
                width += 1
        if width != self.n_leaves:
            raise ShapeMismatchError(f"schedule ends at width {width}, tree has {self.n_leaves} leaves")


def compile_circuit(tree: PhyloTree) -> CircuitSchedule:
    """Schedule: each internal node splits its lineage slot, each edge evolves.

    Pre-order: the node's slot splits into (slot, slot+1), the left edge
    evolves in place, the left subtree expands, then the right edge evolves
    at the slot just past the left block. An s-leaf tree yields s-1 splits
    and 2s-2 evolutions.
    """
    gates = []

    def edge_label(node: TreeNode) -> str:
        if node.name:
            return node.name
        return next(node.leaves()).name

    def emit(node: TreeNode, slot: int) -> int:
        if node.is_leaf:
            return 1
        gates.append(SplitGate(slot))
        left, right = node.children
        gates.append(EvolveGate(slot, left.params, edge=edge_label(left)))
        width_left = emit(left, slot)
        gates.append(EvolveGate(slot + width_left, right.params, edge=edge_label(right)))
        width_right = emit(right, slot + width_left)
        return width_left + width_right

    emit(tree.root, 1)
    schedule = CircuitSchedule(gates=tuple(gates), leaf_names=tree.leaf_names)
    schedule.validate()
    return schedule
