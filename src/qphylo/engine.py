"""Tree simulation and the three likelihood engines.

Every engine reduces all unique site patterns of an alignment at once. The
tree's pre-order node table is read in reverse, children before parents,
and each node carries a (P, k) array:
for each of the P patterns, the likelihood vector (or the diagonal of the
likelihood operator) over the k non-null characters.

- The classical engine runs the textbook pruning recursion: one matmul per
  child edge and one elementwise product per node.
- The quantum engine runs the pruning circuit: per-edge operator-sum
  propagation of the two child likelihood operators into full (P, n, n)
  operators (n = k + 1 counts the null character), the collective pinch
  onto the |kk> subspace, the inverse control-shift (which parks the
  duplicate character on the null ancilla), and a partial trace. The pinch
  leaves a diagonal operator, so the gates run in their sparse forms: the
  pinch is a gather of the |kk> entries, the control-shift an index
  permutation and the partial trace a reshape-trace. The tests pin each
  form to its dense operator.
- The dual engine reduces the subtrees the same way but evaluates the root
  cherry in the state picture: the left child's operator, propagated
  forward through its edge channel, pinches the stationary density, which
  the adjoint of the right edge channel then carries backwards; the trace
  factor nu of the left child is recorded.

Each node below the root is divided by its per-pattern maximum, and the
logs of the divisors accumulate per pattern, as in standard pruning codes
(Felsenstein 1981; BEAGLE), so that deep trees do not underflow to a false
zero likelihood.

All three agree because each edge step, restricted to diagonal operators,
factors through the same likelihood-propagation matrix W = M^T.
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
from .models import ModelParams, markov, prune_matrix, prune_operators
from .treeio import Alignment, PhyloTree, SplitGate, compile_circuit, emit_newick

ENGINES = ("classical", "quantum", "dual")

# simulate_tree refuses, before allocating, an exact pattern tensor larger than
# this; 12 DNA leaves (128 MiB) run and 14 (2 GiB) are refused.
MAX_TENSOR_BYTES = 2**30


def simulate_tree(tree: PhyloTree) -> ProbabilityTensor:
    """Exact site-pattern distribution at the leaves.

    Executes the compiled schedule on the root's stationary vector: splits
    duplicate a lineage slot, evolutions push the slot through the edge's
    substitution matrix. Output slots follow the tree's left-to-right leaf
    order. Raises ModelError when the n_states**n_leaves tensor would exceed
    MAX_TENSOR_BYTES.
    """
    size = tree.n_states ** tree.n_leaves * np.dtype(float).itemsize
    if size > MAX_TENSOR_BYTES:
        raise ModelError(f"exact pattern tensor has {tree.n_states}**{tree.n_leaves} entries "
                         f"({size} bytes), over the {MAX_TENSOR_BYTES}-byte limit")
    schedule = compile_circuit(tree)
    tensor = ProbabilityTensor(tree.pi)
    for gate in schedule.gates:
        if isinstance(gate, SplitGate):
            tensor = split_at(tensor, gate.slot)
        else:
            tensor = ProbabilityTensor(linalg.apply_on_axes(markov(gate.params), tensor.values,
                                                            [gate.slot - 1]))
    return tensor


# --- Per-edge data -----------------------------------------------------------


def _embed_stack(ops) -> np.ndarray:
    """Stack operators over the non-null block, extended by a zero null row and column.

    Likelihood operators carry no weight on the null character, so the
    corner never reaches a result.
    """
    ops = [linalg.as_matrix(op) for op in ops]
    m = ops[0].shape[0]
    out = np.zeros((len(ops), m + 1, m + 1), dtype=complex)
    out[:, 1:, 1:] = ops
    return out


def _transfer(stack: np.ndarray) -> np.ndarray:
    """The columns of sum_k A_k (x) conj(A_k) that a diagonal input reaches.

    Entry ((a, b), i) is sum_k A_k[a, i] conj(A_k[b, i]); only the non-null
    inputs i >= 1 are kept, since likelihood operators carry no null weight.
    Shape (n*n, n-1); it never grows with the number of patterns.
    """
    n = stack.shape[1]
    block = stack[:, :, 1:]
    return np.einsum("kai,kbi->abi", block, block.conj()).reshape(n * n, n - 1)


@dataclass(frozen=True)
class _EdgeOps:
    """Per-edge data that one engine reads for every pattern.

    The classical engine reads only ``w``; the quantum and dual engines
    read only the Kraus family, so each engine builds only its own.
    """

    w: np.ndarray | None = None         # likelihood propagation matrix M^T
    stack: np.ndarray | None = None     # embedded Kraus family
    transfer: np.ndarray | None = None  # _transfer(stack)

    @classmethod
    def for_params(cls, params: ModelParams, engine: str) -> "_EdgeOps":
        if engine == "classical":
            return cls(w=prune_matrix(params))
        return cls.from_kraus(prune_operators(params))

    @classmethod
    def from_kraus(cls, ops) -> "_EdgeOps":
        stack = _embed_stack(ops)
        return cls(stack=stack, transfer=_transfer(stack))


# --- Batched kernels: arrays carry one row per site pattern --------------------


def _diagonal(ops: np.ndarray) -> np.ndarray:
    """The |k><k| entries of a (P, n, n) operator stack, shape (P, n)."""
    p, n, _ = ops.shape
    return ops.reshape(p, n * n)[:, ::n + 1]


def _kraus_propagate(diag: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """Batched operator sum sum_k A_k diag(0, d_p) A_k^dagger, shape (P, n, n).

    ``diag`` is (P, n-1): each row the diagonal of one input operator over
    the non-null characters.
    """
    n = transfer.shape[1] + 1
    return (diag @ transfer.T).reshape(len(diag), n, n)


def _collective_pinch(rho_b: np.ndarray, rho_c: np.ndarray) -> np.ndarray:
    """Diagonal of the collective pinch of rho_b (x) rho_c, shape (P, n*n).

    The pinch keeps only the |kk><kk| entries of the joint operator, and the
    joint entry there is the product of the factors' |k><k| entries: the
    gate is a gather, and every other entry of the result is zero.
    """
    p, n, _ = rho_b.shape
    out = np.zeros((p, n * n), dtype=complex)
    out[:, ::n + 1] = _diagonal(rho_b) * _diagonal(rho_c)
    return out


@functools.lru_cache(maxsize=None)
def _unshift_source(n: int) -> np.ndarray:
    """For each |i, j>, the index |i, j + i mod n> that the inverse control-shift moves there."""
    i, j = np.divmod(np.arange(n * n), n)
    src = i * n + (j + i) % n
    src.setflags(write=False)
    return src


def _inverse_control_shift(diag: np.ndarray) -> np.ndarray:
    """U^dagger D U for the control-shift U and a diagonal D, given by its diagonal.

    U^dagger sends |i, j> to |i, j - i mod n>, a permutation, so the
    conjugation permutes the diagonal entries.
    """
    return diag[:, _unshift_source(math.isqrt(diag.shape[1]))]


def _trace_second_slot(diag: np.ndarray) -> np.ndarray:
    """Partial trace over slot 2 of a diagonal two-slot operator, shape (P, n)."""
    p, nn = diag.shape
    n = math.isqrt(nn)
    return diag.reshape(p, n, n).sum(axis=2)


def _classical_node(lb: np.ndarray, lc: np.ndarray, eb: _EdgeOps, ec: _EdgeOps) -> np.ndarray:
    """Parent vectors (W_B L_B) o (W_C L_C), one row per pattern."""
    return (lb @ eb.w.T) * (lc @ ec.w.T)


def _quantum_node(lb: np.ndarray, lc: np.ndarray, eb: _EdgeOps, ec: _EdgeOps) -> np.ndarray:
    """The pruning circuit on two children's likelihood operators, one row per pattern."""
    joint = _collective_pinch(_kraus_propagate(lb, eb.transfer), _kraus_propagate(lc, ec.transfer))
    return _trace_second_slot(_inverse_control_shift(joint))[:, 1:].real


def _pinch_weights(lb: np.ndarray, eb: _EdgeOps):
    """Forward step of the left child: (q, nu) with q = diag(E_B(L_B)) / nu, nu = Tr L_B.

    q has shape (P, n) with q[:, 0] = 0; rows with nu = 0 get q = 0.
    """
    nu = lb.sum(axis=1)
    forward = _diagonal(_kraus_propagate(lb, eb.transfer)).real
    q = np.divide(forward, nu[:, None], out=np.zeros_like(forward), where=nu[:, None] > 0.0)
    return q, nu


def _adjoint_state(q: np.ndarray, pi: np.ndarray, ec: _EdgeOps) -> np.ndarray:
    """sum_k A_k^dagger sigma A_k for the pinched stationary density sigma, (P, n, n).

    sigma = sum_k q_k P_k diag(0, pi) P_k is diagonal; the adjoint map is the
    operator sum of the adjoint Kraus family.
    """
    adjoint = _transfer(ec.stack.conj().transpose(0, 2, 1))
    return _kraus_propagate(q[:, 1:] * pi, adjoint)


def _dual_root(lb: np.ndarray, lc: np.ndarray, eb: _EdgeOps, ec: _EdgeOps, pi: np.ndarray):
    """Root cherry in the state picture: (site value, nu) per pattern.

    The value is nu Tr(L_C A^dagger(sigma)), sigma the stationary density
    pinched by the left child's forward weights q.
    """
    q, nu = _pinch_weights(lb, eb)
    back = _adjoint_state(q, pi, ec)
    return nu * np.einsum("pi,pii->p", lc, back[:, 1:, 1:]).real, nu


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


def _reduce_below_root(kids: tuple, values: list, edges: list, node_step):
    """Reduce every internal node below the root, rescaling as it goes.

    ``kids`` is the tree's pre-order table, read in reverse. ``values`` holds
    the leaves' (P, k) arrays and is filled in place. Returns the root
    children as ((array, log-scaler), (array, log-scaler)), where each array
    times exp(log-scaler) is the unscaled operator.
    """
    logs = [0.0] * len(values)
    for slot in reversed(range(1, len(values))):
        if not kids[slot]:
            continue
        left, right = kids[slot]
        out = node_step(values[left], values[right], edges[left], edges[right])
        scale = out.max(axis=1)
        scale = np.where(scale > 0.0, scale, 1.0)
        values[slot] = out / scale[:, None]
        logs[slot] = logs[left] + logs[right] + np.log(scale)
        values[left] = values[right] = None
    left, right = kids[0]
    return (values[left], logs[left]), (values[right], logs[right])


def alignment_loglik(tree: PhyloTree, aln: Alignment, engine: str = "classical") -> SiteLikelihoodReport:
    """Total log-likelihood of an alignment under one engine.

    Sites are independent; identical site patterns are evaluated once, all
    in one batch, and the per-site report is expanded back in alignment
    order. A site of zero likelihood raises ZeroLikelihoodError naming the
    (1-based) site.
    """
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

    patterns, _, inverse = aln.site_patterns()
    row_of = {name: row for row, name in enumerate(aln.taxa)}
    indicator = np.eye(tree.n_states)
    values = [None if node.children else indicator[patterns[:, row_of[node.name]]]
              for node in tree.nodes]
    edges = [None] + [_EdgeOps.for_params(node.params, engine) for node in tree.nodes[1:]]
    node_step = _classical_node if engine == "classical" else _quantum_node

    (lb, log_b), (lc, log_c) = _reduce_below_root(tree.kids, values, edges, node_step)
    eb, ec = (edges[slot] for slot in tree.kids[0])
    nu = None
    if engine == "dual":
        root_values, nu = _dual_root(lb, lc, eb, ec, tree.pi)
        nu = (nu * np.exp(log_b))[inverse]
    else:
        root_values = node_step(lb, lc, eb, ec) @ tree.pi
    zero = root_values[inverse] <= 0.0
    if zero.any():
        raise ZeroLikelihoodError(int(np.argmax(zero)) + 1)
    logs = (np.log(root_values) + log_b + log_c)[inverse]
    return SiteLikelihoodReport(
        engine=engine,
        likelihood=np.exp(logs),
        log=logs,
        nu=nu,
        total_log_likelihood=float(np.sum(logs)),
        tree=tree,
    )
