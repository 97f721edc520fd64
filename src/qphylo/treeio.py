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

_SPACE = re.compile(r"[ \t\r\n]*")
_NAME = re.compile(r"[A-Za-z0-9_.\-|]*")
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_ANNOTATION_MARKS = re.compile(r"[{},\]]")


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
    """A ``TreeNode`` tree's nodes in pre-order, root first, built without recursion.

    Returns (nodes, kids): ``kids[s]`` holds the positions of node s's
    children, left to right. Every child comes after its parent, so a forward
    loop over the positions runs top-down and a reversed loop bottom-up;
    position s + 1 is the first child of an internal node s.
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


def _skip(text: str, pos: int) -> int:
    """The first position at or after ``pos`` that is not a space, tab or line break."""
    return _SPACE.match(text, pos).end()


def _annotation(text: str, start: int) -> tuple:
    """The ``[&key=value,...]`` block opening at ``start``: (its entries, the position past it).

    One scan finds the closing ``]`` and the commas between entries, both outside
    ``{...}`` lists. Entry errors carry the offset just past the ``&``.
    """
    begin = _skip(text, start + 1)
    if not text.startswith("&", begin):
        raise NewickParseError("comment must start with '[&'", offset=start)
    begin += 1
    depth, cuts = 0, [begin - 1]
    for mark in _ANNOTATION_MARKS.finditer(text, begin):
        ch = mark.group()
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            cuts.append(mark.start())
            if ch == "]":
                break
    else:
        raise NewickParseError("unterminated comment", offset=start)
    out = {}
    for left, right in zip(cuts, cuts[1:]):
        entry = text[left + 1:right].strip()
        if not entry:
            continue
        if "=" not in entry:
            raise NewickParseError(f"annotation entry {entry!r} is not key=value", offset=begin)
        key, value = entry.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in out:
            raise NewickParseError(f"duplicate annotation key {key!r}", offset=begin)
        if value.startswith("{") and value.endswith("}"):
            items = [x.strip() for x in value[1:-1].split(",")]
            if not all(_NUMBER.fullmatch(x) for x in items):
                raise NewickParseError(f"annotation {key}={value} is not a list of numbers",
                                       offset=begin)
            out[key] = tuple(map(float, items))
        else:
            out[key] = value
    return out, cuts[-1] + 1


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
        if not isinstance(ann[key], str) or not _NUMBER.fullmatch(ann[key]):
            raise NewickParseError(f"annotation {key}= must be a number, got {ann[key]!r}",
                                   offset=offset)
        return float(ann[key])
    if family.takes_pi and not isinstance(ann.get("pi"), tuple):
        raise NewickParseError(f"model {name} needs pi={{...}}", offset=offset)
    if "t" in ann:
        if "a" in ann:
            raise NewickParseError(f"model {name} takes a= or t=, not both", offset=offset)
        return family.from_length(num("t"))
    return ModelParams(name, *map(num, family.weights), pi=ann.get("pi"))


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree; errors carry the offset of the failure.

    One forward scan appends a record per node as the node starts, so the
    records run in text order, which is pre-order, and a node's offset counts
    its leading whitespace. Syntax errors, annotation syntax included, are
    raised as the scan meets them. The records are then checked for binary
    nodes before edge parameters are resolved, so a shape error is reported
    even when an earlier annotation names a bad model; both checks run in
    pre-order, so the first error in the text is the one reported. The nodes
    are built bottom-up from the records.
    """
    records = []  # per node in pre-order: [offset, name, length, annotation, child positions]
    groups = []  # positions of the nodes whose ')' is still to come
    pos, s = 0, None  # s: the node whose name, length and annotation come next
    while True:
        if s is None:
            s = len(records)
            if groups:
                records[groups[-1]][4].append(s)
            records.append([pos, None, None, None, []])
            pos = _skip(text, pos)
            if text.startswith("(", pos):
                groups.append(s)
                pos, s = pos + 1, None
                continue
        found = _NAME.match(text, _skip(text, pos))
        pos, name, length, ann = found.end(), found.group() or None, None, None
        while True:
            pos = _skip(text, pos)
            if text.startswith(":", pos) and length is None:
                pos = _skip(text, pos + 1)
                found = _NUMBER.match(text, pos)
                if not found:
                    raise NewickParseError("expected a number", offset=pos)
                length, pos = float(found.group()), found.end()
            elif text.startswith("[", pos) and ann is None:
                ann, pos = _annotation(text, pos)
            else:
                break
        record = records[s]
        if not record[4] and name is None:
            raise NewickParseError("leaf without a name", offset=record[0])
        record[1:4] = name, length, ann
        if not groups:
            break
        if text.startswith(",", pos):
            pos, s = pos + 1, None
        elif text.startswith(")", pos):
            pos, s = pos + 1, groups.pop()
        else:
            raise NewickParseError("expected ')'", offset=pos)
    if not text.startswith(";", pos):
        raise NewickParseError("expected ';'", offset=pos)
    pos = _skip(text, pos + 1)
    if pos != len(text):
        raise NewickParseError("trailing text after ';'", offset=pos)
    for offset, _, _, _, children in records:
        if children and len(children) != 2:
            raise NewickParseError(f"non-binary node with {len(children)} children", offset=offset)
    offset, _, _, ann, _ = records[0]
    if ann and set(ann) - {"pi"}:
        raise NewickParseError("root annotation may only set pi={...}", offset=offset)
    if ann and not isinstance(ann["pi"], tuple):
        raise NewickParseError("root annotation needs pi={...}", offset=offset)
    root_pi = np.asarray(ann["pi"], dtype=float) if ann else None
    params = [None] + [_edge_params(offset, length, ann)
                       for offset, _, length, ann, _ in records[1:]]
    built = {}
    for s in reversed(range(len(records))):
        _, name, length, ann, children = records[s]
        built[s] = TreeNode(name=name, children=tuple(built.pop(k) for k in children),
                            params=params[s], length=length, annotated=s > 0 and ann is not None)
    return PhyloTree(root=built[0], root_pi=root_pi)


def _edge_params(offset: int, length: float | None, ann: dict | None) -> ModelParams:
    """The edge's model, from its annotation or else its bare branch length."""
    try:
        if ann is not None:
            return _params_from_annotation(ann, offset)
        if length is not None:
            return jc_from_branch_length(length)
    except ModelError as exc:
        raise NewickParseError(f"invalid model parameters: {exc}", offset=offset) from exc
    raise NewickParseError("edge needs a branch length or a model annotation", offset=offset)


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
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] != len(self.taxa):
            raise ShapeMismatchError(f"data shape {data.shape} does not match {len(self.taxa)} taxa")
        row_of = {name: row for row, name in enumerate(self.taxa)}
        if len(row_of) != len(self.taxa):
            dup = sorted({name for name in self.taxa if self.taxa.count(name) > 1})
            raise FastaParseError(f"duplicate taxa {dup}")
        kind = data.dtype.kind
        if kind not in "biuf" or (kind == "f" and (data != np.trunc(data)).any()):
            raise FastaParseError("character index is not an integer")
        if data.size and (data.min() < 0 or data.max() >= self.alphabet.n_states):
            raise FastaParseError("character index out of alphabet range")
        data = data.astype(np.int64)
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
        if not bad:
            raise FastaParseError("records mix DNA (A/C/G/T) and binary (0/1) characters")
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
