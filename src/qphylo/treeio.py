"""Tree and alignment ingestion, plus compilation to the circuit's gate tuple.

Newick trees carry per-edge model parameters in comment blocks, e.g.
``(A:0.1[&model=K3,a=0.1,b=0.2,c=0.3],B:0.1);``. A bare branch length means
the 4-state one-parameter model at that length; the root may carry a
stationary distribution as ``[&pi={...}]`` and defaults to uniform.
Alignments are plain FASTA over A/C/G/T, or 0/1 for two-state runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import FastaParseError, ModelError, NewickParseError, ShapeMismatchError
from .models import FAMILY, ModelParams, jc_from_branch_length

_NAME_CHARS = re.compile(r"[A-Za-z0-9_.\-|]")
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


@dataclass(frozen=True)
class Alphabet:
    name: str
    symbols: tuple

    @property
    def n_states(self) -> int:
        return len(self.symbols)


DNA = Alphabet("dna", ("A", "C", "G", "T"))
BINARY = Alphabet("binary", ("0", "1"))


def alphabet_for_states(n_states: int) -> Alphabet:
    if n_states == 4:
        return DNA
    if n_states == 2:
        return BINARY
    raise ModelError(f"no alphabet with {n_states} states")


@dataclass(frozen=True, eq=False)
class TreeNode:
    """One tree node; ``params`` describe the edge up to the parent.

    Equality and hashing go by the subtree's fields, read node by node in
    pre-order with each node's child count, so no comparison recurses.
    """

    name: str | None = None
    children: tuple = ()
    params: ModelParams | None = None
    length: float | None = None
    annotated: bool = False  # params came from an explicit comment block

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return _shape_key(pre_order(self)[0]) == _shape_key(pre_order(other)[0])

    def __hash__(self):
        return hash(_shape_key(pre_order(self)[0]))


def _shape_key(nodes) -> tuple:
    """The fields of a pre-order node sequence; equal keys mean equal trees."""
    return tuple((n.name, n.params, n.length, n.annotated, len(n.children)) for n in nodes)


def pre_order(root):
    """A tree's nodes in pre-order, root first, built without recursion.

    Works on any node with a ``children`` tuple. Returns (nodes, kids):
    ``kids[s]`` holds the positions of node s's children, left to right.
    Every child comes after its parent, so a forward loop over the positions
    runs top-down and a reversed loop bottom-up; position s + 1 is the
    first child of an internal node s.
    """
    nodes, kids = [], []
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        s = len(nodes)
        if parent is not None:
            kids[parent].append(s)
        nodes.append(node)
        kids.append([])
        for child in reversed(node.children):
            stack.append((child, s))
    return tuple(nodes), tuple(map(tuple, kids))


@dataclass(frozen=True, eq=False)
class PhyloTree:
    """Rooted binary tree with per-edge model parameters.

    ``root_pi`` is the stationary distribution over the non-null characters
    used at the root; None means uniform, and ``pi`` is the read-only
    distribution either resolves to. ``nodes`` and ``kids`` are the tree's
    pre-order table (see ``pre_order``), built once; position 0 is the root,
    and positions 1..n-1 are the edges in pre-order, whose parameters
    ``edge_params`` holds in that order.

    Equality and hashing go by the nodes and ``root_pi``'s bytes.
    """

    root: TreeNode
    root_pi: np.ndarray | None = None
    nodes: tuple = field(init=False, repr=False, compare=False)
    kids: tuple = field(init=False, repr=False, compare=False)
    leaf_names: tuple = field(init=False, repr=False, compare=False)
    n_states: int = field(init=False, repr=False, compare=False)
    edge_params: tuple = field(init=False, repr=False, compare=False)
    pi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.root.is_leaf:
            raise NewickParseError("tree needs at least two leaves")
        nodes, kids = pre_order(self.root)
        states = set()
        names = []
        seen, dup = set(), set()
        for s, node in enumerate(nodes):
            if s:
                if node.params is None:
                    raise ModelError(f"edge above {node.name or 'internal node'} has no model parameters")
                states.add(node.params.n_states)
            if node.is_leaf:
                if not node.name:
                    raise NewickParseError("leaf without a name")
                (dup if node.name in seen else seen).add(node.name)
                names.append(node.name)
            elif len(node.children) != 2:
                raise NewickParseError(
                    f"non-binary node {node.name or ''!r} with {len(node.children)} children")
        if dup:
            raise NewickParseError(f"duplicate leaf labels {sorted(dup)}")
        if len(states) > 1:
            raise ModelError("edges mix 2-state and 4-state model families")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "kids", kids)
        object.__setattr__(self, "leaf_names", tuple(names))
        object.__setattr__(self, "n_states", states.pop())
        object.__setattr__(self, "edge_params", tuple(node.params for node in nodes[1:]))
        if self.root_pi is None:
            pi = np.full(self.n_states, 1.0 / self.n_states)
        else:
            try:
                pi = linalg.validate_probability_vector(np.asarray(self.root_pi, dtype=float))
            except ValueError as exc:
                raise ModelError(f"root distribution: {exc}") from None
            if pi.size != self.n_states:
                raise ModelError(f"root distribution has {pi.size} entries for {self.n_states} states")
            pi = pi.copy()
            object.__setattr__(self, "root_pi", pi)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def _key(self) -> tuple:
        return (_shape_key(self.nodes), None if self.root_pi is None else self.root_pi.tobytes())

    def __eq__(self, other):
        if not isinstance(other, PhyloTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_names)

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


def _params_from_annotation(ann: dict, offset: int) -> ModelParams:
    name = ann.get("model")
    if name is None:
        raise NewickParseError("edge annotation needs a model= entry", offset=offset)
    family = FAMILY.get(name)
    if family is None:
        raise NewickParseError(f"unknown model family {name!r}", offset=offset)
    takes = {"model", *family.weights}
    if family.takes_pi:
        takes.add("pi")
    if family.from_length:
        takes.add("t")
    extra = sorted(set(ann) - takes)
    if extra:
        raise NewickParseError(f"model {name} does not take {extra}", offset=offset)
    def num(key):
        if key not in ann:
            raise NewickParseError(f"model {name} needs {key}=", offset=offset)
        try:
            return float(ann[key])
        except (TypeError, ValueError):
            raise NewickParseError(f"annotation {key}= must be a number, got {ann[key]!r}",
                                   offset=offset) from None
    if family.takes_pi and not isinstance(ann.get("pi"), tuple):
        raise NewickParseError(f"model {name} needs pi={{...}}", offset=offset)
    if "t" in ann:
        if "a" in ann:
            raise NewickParseError(f"model {name} takes a= or t=, not both", offset=offset)
        return family.from_length(num("t"))
    return ModelParams(name, *map(num, family.weights), pi=ann.get("pi"))


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
    when deeper annotations are also missing. Both passes run in pre-order,
    which is text order, so the first error in the text is the one reported.
    """
    cur = _Cursor(text)
    raw = _parse_raw(cur)
    cur.take(";")
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise NewickParseError("trailing text after ';'", offset=cur.pos)
    nodes, kids = pre_order(raw)
    for node in nodes:
        if node.children and len(node.children) != 2:
            raise NewickParseError(f"non-binary node with {len(node.children)} children", offset=node.offset)
    ann = raw.annotation
    if ann and set(ann) - {"pi"}:
        raise NewickParseError("root annotation may only set pi={...}", offset=raw.offset)
    if ann and not isinstance(ann["pi"], tuple):
        raise NewickParseError("root annotation needs pi={...}", offset=raw.offset)
    root_pi = np.asarray(ann["pi"], dtype=float) if ann else None
    params = [None] + [_edge_params(node) for node in nodes[1:]]
    built = {}
    for s in reversed(range(len(nodes))):
        node = nodes[s]
        built[s] = TreeNode(name=node.name, children=tuple(built.pop(k) for k in kids[s]),
                            params=params[s], length=node.length,
                            annotated=s > 0 and node.annotation is not None)
    return PhyloTree(root=built[0], root_pi=root_pi)


def _parse_raw(cur: _Cursor) -> _RawNode:
    """The node structure, read left to right with a stack of open '(' groups."""
    groups = []  # (offset, children so far) per open group
    while True:
        start = cur.pos
        if cur.peek() == "(":
            cur.take("(")
            groups.append((start, []))
            continue
        node = _node_tail(cur, start, ())
        while True:
            if not groups:
                return node
            groups[-1][1].append(node)
            if cur.peek() == ",":
                cur.take(",")
                break
            cur.take(")")
            start, children = groups.pop()
            node = _node_tail(cur, start, tuple(children))


def _node_tail(cur: _Cursor, start: int, children: tuple) -> _RawNode:
    """Read a node's name, ``:length`` and ``[&...]`` annotation after its children."""
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


def _edge_params(raw: _RawNode) -> ModelParams:
    """The edge's model, from its annotation or else its bare branch length."""
    try:
        if raw.annotation is not None:
            return _params_from_annotation(raw.annotation, raw.offset)
        if raw.length is not None:
            return jc_from_branch_length(raw.length)
    except ModelError as exc:
        raise NewickParseError(f"invalid model parameters: {exc}", offset=raw.offset) from exc
    raise NewickParseError("edge needs a branch length or a model annotation", offset=raw.offset)


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
    done = {}
    for s in reversed(range(len(tree.nodes))):
        node = tree.nodes[s]
        out = "(" + ",".join(done.pop(k) for k in tree.kids[s]) + ")" if node.children else ""
        if node.name:
            out += node.name
        if node.length is not None:
            out += ":" + _format_float(node.length)
        if s and node.annotated:
            out += _format_annotation(node.params)
        done[s] = out
    text = done[0]
    if tree.root_pi is not None:
        text += "[&pi={" + ",".join(_format_float(p) for p in tree.root_pi) + "}]"
    return text + ";"


@dataclass(frozen=True)
class Alignment:
    """Character matrix over the non-null alphabet, one row per taxon."""

    taxa: tuple
    data: np.ndarray  # (n_taxa, n_sites) integer character indices
    alphabet: Alphabet
    patterns: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    # (n_taxa, k, P) float64, C order: row x of a taxon's contiguous (k, P) block marks
    # the patterns showing character x, the leaf likelihood vectors of every likelihood
    # call on this alignment.
    indicators: np.ndarray = field(init=False, repr=False, compare=False)
    row_of: dict = field(init=False, repr=False, compare=False)  # taxon name -> data row

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] != len(self.taxa):
            raise ShapeMismatchError(f"data shape {data.shape} does not match {len(self.taxa)} taxa")
        row_of = {name: row for row, name in enumerate(self.taxa)}
        if len(row_of) != len(self.taxa):
            dup = sorted({name for name in self.taxa if self.taxa.count(name) > 1})
            raise FastaParseError(f"duplicate taxa {dup}")
        if data.size and (data.min() < 0 or data.max() >= self.alphabet.n_states):
            raise FastaParseError("character index out of alphabet range")
        data = data.copy()
        unique = np.unique(data.T, axis=0, return_inverse=True, return_counts=True)
        states = np.arange(self.alphabet.n_states)[:, None]
        indicators = (unique[0].T[:, None, :] == states).astype(float, order="C")
        for name, array in zip(("data", "patterns", "inverse", "counts", "indicators"),
                               (data, *unique, indicators)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "taxa", tuple(self.taxa))
        object.__setattr__(self, "row_of", row_of)

    @property
    def n_sites(self) -> int:
        return self.data.shape[1]

    def sequence(self, taxon: str) -> str:
        row = self.data[self.taxa.index(taxon)]
        return "".join(self.alphabet.symbols[i] for i in row)

    def site_patterns(self):
        """Unique site columns with counts and the site -> pattern map, found at construction."""
        return self.patterns, self.counts, self.inverse


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
    # Every character is one of the alphabet's ASCII symbols, so one table lookup maps them all.
    table = np.zeros(128, dtype=np.int64)
    table[[ord(symbol) for symbol in alphabet.symbols]] = np.arange(alphabet.n_states)
    data = table[np.frombuffer("".join(joined).encode("ascii"), dtype=np.uint8)].reshape(len(joined), -1)
    return Alignment(taxa=tuple(taxa), data=data, alphabet=alphabet)


@dataclass(frozen=True)
class SplitGate:
    slot: int


@dataclass(frozen=True)
class EvolveGate:
    slot: int
    params: ModelParams


def compile_circuit(tree: PhyloTree) -> tuple:
    """The gates turning one root lineage into the leaf pattern state, in order.

    Pre-order: each edge evolves at its node's slot, then an internal node's
    slot splits into (slot, slot+1); the left child keeps the slot and the
    right child takes the slot just past the left block. An s-leaf tree
    yields s-1 splits and 2s-2 evolutions.
    """
    nodes, kids = tree.nodes, tree.kids
    width = [1] * len(nodes)
    for s in reversed(range(len(nodes))):
        if kids[s]:
            width[s] = sum(width[k] for k in kids[s])
    slot = [1] * len(nodes)
    gates = []
    for s, node in enumerate(nodes):
        if s:
            gates.append(EvolveGate(slot[s], node.params))
        if kids[s]:
            gates.append(SplitGate(slot[s]))
            left, right = kids[s]
            slot[left], slot[right] = slot[s], slot[s] + width[left]
    return tuple(gates)
