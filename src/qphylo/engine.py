"""Tree simulation and the three likelihood engines.

Every engine reduces all unique site patterns of an alignment at once. The
tree's pre-order node table is read in reverse, children before parents,
and each node carries a (k, P) array, one column per site pattern: the
likelihood vector (or the diagonal of the likelihood operator) over the k
non-null characters. Every kernel therefore runs along the P patterns.

- The classical engine runs the textbook pruning recursion: one matmul per
  child edge and one elementwise product per node.
- The quantum engine runs the pruning circuit: per-edge operator-sum
  propagation of the two child likelihood operators, the collective pinch
  onto the |kk> subspace, the inverse control-shift (which parks the
  duplicate character on the null ancilla), and a partial trace. An edge
  gate's null row and column are zero, so propagation runs through (k*k, k)
  transfer forms into the whole (k, k, P) non-null block, off-diagonal
  entries included; the null character (n = k + 1 levels) enters at the
  pinch, where the control-shift needs it. The pinch leaves a diagonal
  operator, so the gates run in their sparse forms: the pinch is a product
  of the |kk> entries, and the inverse control-shift and the partial trace
  are one 0/1 matrix applied to the pinched diagonal. That product is
  exact, since each output has one non-zero term, with coefficient 1, and
  node values are finite. Blocks and the pinched diagonal store their
  diagonal rows first, so the pinch runs on contiguous rows. A node is four
  array calls (two propagation matmuls, the pinch product, the shift-trace
  matmul) on buffers built once per call; tests pin each form, read from
  the node's own buffers, to its dense operator.
- The dual engine reduces the subtrees the same way but evaluates the root
  cherry in the state picture: the left child's operator, propagated
  forward through its edge channel, pinches the stationary density, which
  the adjoint of the right edge channel then carries backwards; the trace
  factor nu of the left child is recorded. Both are diagonal, so the
  adjoint step is the right edge's transfer-form diagonal rows, transposed:
  the dual engine reads the quantum engine's entries and no others.

The quantum and dual engines compute in the field of their Kraus operators.
``models`` builds every family qphylo parses as a real stack (the flips are
permutation matrices, and F's instruments are real), so its transfer forms
and work arrays are float64. A family with a complex operator, such as a
unitary with a phase, runs the same kernels in complex128 and keeps the
real part of each result. ``verify``'s dense references stay complex, so
its dense-pruning suite checks the real engine against complex gates.

Deep trees must not underflow to a false zero likelihood, so a node below
the root is rescaled when some pattern's maximum falls below 2^-256, as
RAxML does (Stamatakis 2006): each pattern's column is multiplied by the
power of two that brings its maximum into [1/2, 1), and the integer
exponents accumulate per pattern. A power of two scales exactly, so the
result does not depend on which nodes were rescaled. An unrescaled node's
children have maxima of at least 2^-256, so its raw product keeps 2^-510
of headroom above the smallest normal float64. A node is screened only
where a bound from its edges' floors (the least entry a node reads) cannot
clear it: below the root, a 32-leaf tree whose edges change state with
probability 0.05 is never screened on 300 random sites; a balanced
1024-leaf tree is screened and rescaled.

All three agree because each edge step, restricted to diagonal operators,
factors through the same likelihood-propagation matrix W = M^T.

Edge entries have one builder, ``_entries``: a family's (B, d) weight rows
become B entries in one einsum, for the tree cache (one batch per family),
each fit point and, from the unit rows, the outcomes the optimizer counts.

``_pattern_values`` is each engine's one reduction, on per-edge arrays.
``alignment_loglik`` runs it on the tree's edges; the optimizer's E-step
runs it with one edge's array replaced by the part of its instrument that
one weight drives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import split_at
from .errors import ModelError, TaxaMismatchError, ZeroLikelihoodError
from .linalg import ProbabilityTensor
from .models import markov, prune_matrix, prune_operators
from .treeio import Alignment, PhyloTree, SplitGate, compile_circuit, emit_newick

ENGINES = ("classical", "quantum", "dual")
_KIND = {"classical": "classical", "quantum": "kraus", "dual": "kraus"}  # the edge entry each reads

# _reduce_below_root rescales a node only when some pattern's maximum is below this.
_SCALE_FLOOR = 2.0 ** -256
_LN2 = math.log(2.0)

# simulate_tree refuses, before allocating, a tensor whose build (twice the
# tensor) exceeds this: 13 DNA and 26 two-state leaves run, 14 and 27 do not.
MAX_TENSOR_BYTES = 2**30


def simulate_tree(tree: PhyloTree) -> ProbabilityTensor:
    """Exact site-pattern distribution at the leaves.

    Runs the compiled gates on the root's stationary vector: splits duplicate
    a lineage slot, evolutions push the slot through the edge's substitution
    matrix. Each gate allocates only its output array, so the build peaks at
    twice the n_states**n_leaves tensor; ModelError when that would exceed
    MAX_TENSOR_BYTES. Output slots follow the tree's left-to-right leaf order.
    """
    size = tree.n_states ** tree.n_leaves * np.dtype(float).itemsize
    if 2 * size > MAX_TENSOR_BYTES:
        raise ModelError(f"exact pattern tensor has {tree.n_states}**{tree.n_leaves} entries "
                         f"({size} bytes); building it takes twice that, over the "
                         f"{MAX_TENSOR_BYTES}-byte limit")
    values = tree.pi
    for gate in compile_circuit(tree):
        if isinstance(gate, SplitGate):
            values = split_at(values, gate.slot)
        else:
            values = linalg.apply_on_axes(markov(gate.params), values, [gate.slot - 1])
    return ProbabilityTensor(values)


# --- Per-edge data -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _diagonal_first(d: int, first: int) -> np.ndarray:
    """The row order of a (d*d)-row block, read-only: the rows |c, c>, c >= first, then the rest."""
    rows = np.arange(d * d)
    diagonal = (rows % (d + 1) == 0) & (rows >= first * (d + 1))
    order = np.concatenate([rows[diagonal], rows[~diagonal]])
    order.setflags(write=False)
    return order


def _stack_form(stacks: np.ndarray) -> np.ndarray:
    """The transfer forms of edges whose (B, K, k, k) Kraus stacks are ``stacks``.

    A form holds the columns of sum_k A_k (x) conj(A_k) that a diagonal
    input reaches, entry ((a, b), i) sum_k A_k[a, i] conj(A_k[b, i]) for
    non-null a, b and i, its k rows (a, a) first (``_diagonal_first``). A
    node pinches those leading rows, and ``_dual_root`` reads them
    transposed. The edge gate's null row and column are zero, so an operator
    gains no null weight on an edge and the form is the (k*k, k) non-null
    block; the null slot enters at the pinch. One einsum forms the batch. A
    form has the stack's dtype: conj of a real stack is the stack itself.
    """
    b, k = stacks.shape[0], stacks.shape[2]
    forms = np.einsum("nkai,nkbi->nabi", stacks, stacks.conj()).reshape(b, k * k, k)
    return np.take(forms, _diagonal_first(k, 0), axis=1)


def _floor(entries: np.ndarray) -> list:
    """max(0, the least value a node reads of each entry): the real part of its first k rows,
    all of W or a transfer form's k diagonal rows."""
    read = entries[:, :entries.shape[2]].real
    return np.maximum(read.min(axis=(1, 2)), 0.0).tolist()


def _entries(family: str, x, pi, kind: str) -> tuple:
    """(read-only (B, ...) entries of ``kind`` for the (B, d) weight rows x of ``family``, floors).

    The entries are W, or ``_stack_form`` of the Kraus stacks; ``pi`` is F's.
    ``prune_matrix`` and ``prune_operators`` are looked up in this module's
    globals on every call, so a caller that rebinds them (a tracer, a test)
    sees every build.
    """
    entries = (prune_matrix(family, x, pi) if kind == "classical"
               else _stack_form(prune_operators(family, x, pi)))
    entries.setflags(write=False)
    return entries, _floor(entries)


def _edge_entries(edge_params: tuple, kind: str) -> tuple:
    """The ``_entries`` rows of ``kind`` for a tree's edges, in pre-order, and their floors.

    The distinct parameter values are built once, in one batch per family,
    so a shared-parameter tree builds one row. ``_edge_ops`` is this
    function behind a cache.
    """
    distinct, built = dict.fromkeys(edge_params), {}
    for family in dict.fromkeys(params.family for params in distinct):
        values = [params for params in distinct if params.family == family]
        pi = None if values[0].pi is None else [params.pi for params in values]
        entries, floors = _entries(family, [params.row for params in values], pi, kind)
        built.update(zip(values, zip(entries, floors)))
    return tuple(zip(*(built[params] for params in edge_params)))


@functools.lru_cache(maxsize=6)
def _edge_ops(edge_params: tuple, kind: str) -> tuple:
    """``_edge_entries``, cached by the parameter values and the kind's name.

    The key is never a build function, so rebinding ``prune_matrix`` or
    ``prune_operators`` leaves the cache warm. The same tree evaluated
    again, on another alignment or parsed again from the same text, builds
    nothing. The quantum and dual engines read the same "kraus" entries, so
    the dual engine after the quantum engine builds nothing. Six entries
    hold the two kinds for three trees, whatever their size.
    """
    return _edge_entries(edge_params, kind)


# --- Batched kernels: arrays carry one column per site pattern -----------------


@functools.lru_cache(maxsize=None)
def _unshift_source(n: int) -> np.ndarray:
    """For each |i, j>, the index |i, j + i mod n> that the inverse control-shift moves there."""
    i, j = np.divmod(np.arange(n * n), n)
    src = i * n + (j + i) % n
    src.setflags(write=False)
    return src


def _classical_node(lb: np.ndarray, lc: np.ndarray, wb: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Parent vectors (W_B L_B) o (W_C L_C), one column per pattern."""
    return (wb @ lb) * (wc @ lc)


@functools.lru_cache(maxsize=None)
def _shift_trace(n: int, dtype: np.dtype) -> np.ndarray:
    """The inverse control-shift and the partial trace over slot 2 on a diagonal, as one matrix.

    Row i - 1 of this read-only (n - 1, n*n) 0/1 matrix has a 1 at each
    ``_unshift_source(n)[i*n + j]``, j < n: the rows that the shift moves to
    |i, j> and the trace then adds into |i>. Only the non-null i >= 1 are
    kept. Columns take plane 2's order, ``_diagonal_first(n, 1)``: |11>, ...,
    |kk> first. ``dtype`` is the work array's, so a complex call casts nothing.
    """
    sources = _unshift_source(n)[n:].reshape(n - 1, n)
    matrix = np.zeros((n - 1, n * n), dtype=dtype)
    np.put_along_axis(matrix, sources, 1.0, axis=1)
    matrix = matrix[:, _diagonal_first(n, 1)]
    matrix.setflags(write=False)
    return matrix


def _node_buffers(work: np.ndarray) -> tuple:
    """The views of a zeroed (3, n*n, P) work array that every ``_quantum_node`` writes through.

    Built once per call: the (k*k, P) propagated blocks in planes 0 and 1,
    their diagonal rows, plane 2's |cc> rows for the non-null c, plane 2
    itself, and the ``_shift_trace`` matrix in the work array's dtype. Blocks
    and plane 2 store those rows first, so each is a contiguous (k, P) view.
    """
    k = math.isqrt(work.shape[1]) - 1
    rho_b, rho_c, pinch = work[0, :k * k], work[1, :k * k], work[2]
    return rho_b, rho_c, rho_b[:k], rho_c[:k], pinch[:k], pinch, _shift_trace(k + 1, work.dtype)


def _quantum_node(lb: np.ndarray, lc: np.ndarray, tb: np.ndarray, tc: np.ndarray,
                  buffers: tuple) -> np.ndarray:
    """The pruning circuit on two children's likelihood operators, one column per pattern.

    ``tb`` and ``tc`` are the child edges' (k*k, k) transfer forms.
    ``buffers`` is ``_node_buffers`` of a zeroed (3, n*n, P) work array,
    n = k + 1, of their result type, that every node of one call reuses. The
    node is four array calls:

    - Kraus propagation, two matmuls: the non-null (k, k) blocks of the two
      propagated operators, in the leading k*k rows of planes 0 and 1;
    - collective pinch, one multiply: the |cc><cc| entries of the joint
      operator are the products of the factors' |c><c| entries (the leading
      k rows of each block), written to the |cc> rows of the null-extended
      plane 2 for the non-null c (its leading k rows). Every other row stays
      zero, the null |00> row included;
    - inverse control-shift and partial trace over slot 2, one matmul of
      plane 2 by the 0/1 ``_shift_trace`` matrix: U^dagger sends |i, j> to
      |i, j - i mod n>, and the trace adds the n rows |i, j> into |i>. Slot
      1 of a non-null result is never null, so only the rows i >= 1 are
      kept. Of the n*n terms of an output entry only the |ii> row can be
      non-zero, with coefficient 1.0, and node values are finite, so the
      product is exact.

    ``.real`` is a view for a real work array.
    """
    rho_b, rho_c, diag_b, diag_c, pinch_rows, pinch, shift_trace = buffers
    np.matmul(tb, lb, out=rho_b)
    np.matmul(tc, lc, out=rho_c)
    np.multiply(diag_b, diag_c, out=pinch_rows)
    return np.matmul(shift_trace, pinch).real


def _pinch_weights(lb: np.ndarray, tb: np.ndarray):
    """Forward step of the left child: (q, nu) with q = diag(E_B(L_B)) / nu, nu = Tr L_B.

    ``tb`` is the left edge's (k*k, k) transfer form, so the diagonal is its
    leading k rows applied to L_B: q has shape (k, P), and columns with
    nu = 0 get q = 0.
    """
    nu = lb.sum(axis=0)
    forward = (tb[:lb.shape[0]] @ lb).real
    q = np.divide(forward, nu, out=np.zeros_like(forward), where=nu > 0.0)
    return q, nu


def _dual_root(lb: np.ndarray, lc: np.ndarray, tb: np.ndarray, tc: np.ndarray, pi: np.ndarray):
    """Root cherry in the state picture: (site value, nu) per pattern.

    The value is nu Tr(L_C A^dagger(sigma)), sigma = diag(q o pi) the
    stationary density pinched by the left child's forward weights q, and
    A^dagger the adjoint map sum_k A_k^dagger (.) A_k of the right edge.
    ``tb`` and ``tc`` are the two edges' transfer forms. L_C is diagonal, so
    only the diagonal of A^dagger(sigma) is read: entry i is
    sum_a sum_k |A_k[a, i]|^2 sigma_a, the transpose of ``tc``'s k diagonal
    rows applied to sigma. The null row and column of A^dagger(sigma) are zero.
    """
    q, nu = _pinch_weights(lb, tb)
    back = tc[:lb.shape[0]].T @ (q * pi[:, None])
    return nu * np.einsum("ip,ip->p", lc, back).real, nu


# --- Whole-alignment evaluation -------------------------------------------------


@dataclass(frozen=True)
class SiteLikelihoodReport:
    """One engine run: per-site likelihoods and logs in alignment order, the total, and the tree."""

    engine: str
    likelihood: np.ndarray
    log: np.ndarray
    nu: np.ndarray | None  # the dual engine's per-site trace factors, else None
    total_log_likelihood: float
    tree: PhyloTree

    def to_document(self) -> dict:
        columns = {"likelihood": self.likelihood, "log": self.log, "nu": self.nu}
        columns = {key: value.tolist() for key, value in columns.items() if value is not None}
        rows = zip(range(1, len(self.log) + 1), *columns.values())
        return {
            "engine": self.engine,
            "per_site": [dict(zip(("site", *columns), row)) for row in rows],
            "total_log_likelihood": self.total_log_likelihood,
            "parameters": {"tree": emit_newick(self.tree), "n_sites": len(self.log),
                           "n_taxa": self.tree.n_leaves},
        }


def _reduce_below_root(kids: tuple, values: list, edges: list, floors: list, node_step):
    """Reduce every internal node below the root, rescaling near underflow.

    ``kids`` is the tree's pre-order table, read in reverse. ``values`` holds
    the leaves' (k, P) arrays and is filled in place. A node is rescaled only
    when some pattern's maximum is below ``_SCALE_FLOOR``: each column is then
    multiplied by 2^-e, e the binary exponent of its maximum, which is exact.

    A slot's bound is at most each column's maximum, 1.0 for a leaf. A node
    reads entries >= its edges' ``floors`` (>= 0) on values >= 0, so all its
    entries are >= 0.5 f_l f_r b_l b_r (0.5 covers rounding). Only a node with
    that below the floor is screened; the screen's last minimum is its bound.

    Returns the root children as ((array, exponent), (array, exponent)), where
    each array times 2^exponent is the unscaled operator; an exponent is the
    int 0 when no node of that subtree was rescaled, else a per-pattern array.
    """
    exponents, bounds = [0] * len(values), [1.0] * len(values)
    for slot in reversed(range(1, len(values))):
        if not kids[slot]:
            continue
        left, right = kids[slot]
        out = node_step(values[left], values[right], edges[left], edges[right])
        exponent = exponents[left] + exponents[right]
        bound = 0.5 * floors[left] * floors[right] * bounds[left] * bounds[right]
        # A column whose maximum is below the floor has every entry below it, so one
        # minimum screens the node; initial=1.0 because an alignment may have no sites.
        if bound < _SCALE_FLOOR and (bound := out.min(initial=1.0)) < _SCALE_FLOOR:
            scale = out.max(axis=0)
            if (bound := scale.min()) < _SCALE_FLOOR:
                mantissa, shift = np.frexp(scale)
                out = np.ldexp(out, -shift)
                exponent = exponent + shift
                bound = mantissa.min()
        values[slot], exponents[slot], bounds[slot] = out, exponent, bound
        values[left] = values[right] = None
    left, right = kids[0]
    return (values[left], exponents[left]), (values[right], exponents[right])


def _pattern_values(tree: PhyloTree, aln: Alignment, engine: str, edges: list, floors: list):
    """Per-pattern root values, their binary exponents and the dual engine's nu, else None.

    ``edges`` and ``floors`` are None for the root, then the ``_edge_ops`` entries ``engine``
    reads and their floors, in pre-order, or arrays of the same shapes and floors no higher in
    their place. A value times 2^exponent is its pattern's likelihood.
    """
    # Each leaf is a read-only, contiguous view of its taxon's rows of the alignment's
    # indicator block, built once per alignment; the reduction only ever reads it.
    values = [None if node.children else aln.indicators[aln.row_of[node.name]] for node in tree.nodes]
    if engine == "classical":
        node_step = _classical_node
    else:
        # Three pattern-sized operator stacks per call, not per node: freeing
        # them at every node let glibc trim the heap and fault the pages back
        # in at the next, up to 1.8x the time of a 300-pattern quantum call.
        # Planes 0 and 1 take the two propagated (k, k) non-null blocks in
        # their leading k*k rows; plane 2 is the null-extended pinch, n*n rows.
        # On DNA with 300 patterns that is 3 x 25 x 300 float64 (176 KiB) for
        # real Kraus families. One complex edge makes the array complex128
        # (352 KiB): a complex product written into a real buffer would lose
        # its imaginary part.
        dtype = np.result_type(*{edge.dtype for edge in edges[1:]})
        work = np.zeros((3, (tree.n_states + 1) ** 2, len(aln.counts)), dtype=dtype)
        # The views each node writes through are taken here, once, not at every node.
        node_step = functools.partial(_quantum_node, buffers=_node_buffers(work))

    (lb, e_b), (lc, e_c) = _reduce_below_root(tree.kids, values, edges, floors, node_step)
    left, right = tree.kids[0]
    eb, ec = edges[left], edges[right]
    nu = None
    if engine == "dual":
        root_values, nu = _dual_root(lb, lc, eb, ec, tree.pi)
        nu = np.ldexp(nu, e_b)
    elif engine == "quantum":
        # The pi-weighted rows summed in character order, not a matrix
        # product: numpy hands a contiguous real array to BLAS, which may fuse
        # multiply and add, and the strided real part of a complex array to
        # its own loop, so the two fields would round differently.
        root_values = (tree.pi[:, None] * node_step(lb, lc, eb, ec)).sum(axis=0)
    else:
        root_values = tree.pi @ node_step(lb, lc, eb, ec)
    return root_values, e_b + e_c, nu


def _pattern_logs(values: np.ndarray, exponent) -> np.ndarray:
    """Each pattern's log-likelihood, from its ``_pattern_values`` value and exponent."""
    return np.log(values) + exponent * _LN2


def _check_inputs(tree: PhyloTree, aln: Alignment, engine: str) -> None:
    """Raise unless ``engine`` is an engine and ``aln`` has the tree's taxa and state count."""
    if engine not in ENGINES:
        raise ModelError(f"unknown engine {engine!r}; choose from {ENGINES}")
    tree_leaves = set(tree.leaf_names)
    aln_taxa = set(aln.taxa)
    if tree_leaves != aln_taxa:
        missing = sorted(tree_leaves - aln_taxa)
        extra = sorted(aln_taxa - tree_leaves)
        raise TaxaMismatchError(f"tree/alignment taxa differ (missing from alignment: {missing}, "
                                f"not in tree: {extra})")
    if aln.alphabet.n_states != tree.n_states:
        raise ModelError(f"alignment alphabet has {aln.alphabet.n_states} states, "
                         f"tree models have {tree.n_states}")


def alignment_loglik(tree: PhyloTree, aln: Alignment, engine: str = "classical") -> SiteLikelihoodReport:
    """Total log-likelihood of an alignment under one engine.

    Sites are independent; identical site patterns are evaluated once, all
    in one batch, and the per-site report is expanded back in alignment
    order. A site of zero likelihood raises ZeroLikelihoodError naming the
    (1-based) site.
    """
    _check_inputs(tree, aln, engine)
    _, _, inverse = aln.site_patterns()
    entries, floors = _edge_ops(tree.edge_params, _KIND[engine])
    root_values, exponent, nu = _pattern_values(tree, aln, engine, [None, *entries], [None, *floors])
    zero = root_values <= 0.0
    if zero.any():
        # Patterns are sorted, not in alignment order: name the first zero site.
        raise ZeroLikelihoodError(int(np.argmax(zero[inverse])) + 1)
    # log and exp run once per pattern; only the results are expanded to the sites. The
    # total sums the site logs in alignment order, by the reduction np.sum dispatches to.
    unique_logs = _pattern_logs(root_values, exponent)
    logs = unique_logs[inverse]
    return SiteLikelihoodReport(
        engine=engine,
        likelihood=np.exp(unique_logs)[inverse],
        log=logs,
        nu=None if nu is None else nu[inverse],
        total_log_likelihood=float(logs.sum()),
        tree=tree,
    )
