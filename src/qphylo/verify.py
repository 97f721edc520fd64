"""Cross-representation verification suites.

Each suite checks that two independent constructions of the same object
agree: the projector and Fourier forms of the diagonalizer, traced unitary
dilations against their operator-sum channels, the structural identities
behind the dilations, the three likelihood engines against each other on
random instances, and the paper's circuits run gate by gate on dense
operators against the engines. The suites are deterministic (seeded) and
report their worst observed deviation against the pinned tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .channels import (apply_channel, collective_diagonalizer, control_not, diagonalizer,
                       diagonalizer_fourier)
from .engine import alignment_loglik, simulate_tree
from .models import (FAMILIES, Dilation, ModelParams, binary_dilation, bitflip_generator,
                     bitflip_unitary, flip_weights, group_channel, prune_operators, qw_dilation)
from .treeio import Alignment, BINARY, DNA, PhyloTree, SplitGate, TreeNode, compile_circuit

SEED = 20240901  # seeds run_suites' generator at every level


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: max deviation {self.max_deviation:.3e} (tolerance {self.tolerance:g})"


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_params(rng: np.random.Generator, family: str) -> ModelParams:
    if family == "JC":
        return ModelParams.jc(rng.uniform(0.0, 1.0 / 3.0))
    if family == "K2":
        lam = rng.dirichlet(np.ones(3))
        return ModelParams.k2(lam[1], lam[2] / 2.0)
    if family == "K3":
        lam = rng.dirichlet(np.ones(4))
        return ModelParams.k3(lam[1], lam[2], lam[3])
    if family == "B":
        return ModelParams.binary(rng.uniform(0.0, 1.0))
    pi = rng.dirichlet(np.ones(4)) + 0.02
    return ModelParams.felsenstein(rng.uniform(0.0, 1.0), pi / pi.sum())


def random_topology(rng: np.random.Generator, names, family: str) -> TreeNode:
    """Random rooted binary topology over the given leaf names."""
    names = list(names)
    if len(names) == 1:
        return TreeNode(name=names[0], params=random_params(rng, family), annotated=True)
    cut = int(rng.integers(1, len(names)))
    left = random_topology(rng, names[:cut], family)
    right = random_topology(rng, names[cut:], family)
    return TreeNode(children=(left, right), params=random_params(rng, family), annotated=True)


def random_instance(rng: np.random.Generator, n_leaves: int, family: str, n_sites: int = 1):
    """Random (tree, alignment) pair for one family."""
    names = [f"t{i + 1}" for i in range(n_leaves)]
    root = random_topology(rng, names, family)
    # The root carries no parent edge; drop its params.
    root = replace(root, params=None, annotated=False)
    tree = PhyloTree(root=root)
    alphabet = BINARY if family == "B" else DNA
    data = rng.integers(0, alphabet.n_states, size=(n_leaves, n_sites))
    aln = Alignment(taxa=tuple(tree.leaf_names), data=data, alphabet=alphabet)
    return tree, aln


def suite_fourier_equivalence(rng: np.random.Generator, samples: int = 50) -> SuiteResult:
    worst = 0.0
    for n in (2, 4, 5):
        proj = diagonalizer(n)
        four = diagonalizer_fourier(n)
        for _ in range(samples):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            worst = max(worst, linalg.max_abs(apply_channel(proj, m) - apply_channel(four, m)))
    return SuiteResult("diagonalizer Fourier equivalence", worst, 1e-12)


def _dilation(params: ModelParams) -> Dilation:
    """The flip family's unitary dilation: coin-flip on 2 states, walk on 4."""
    return binary_dilation(params) if params.n_states == 2 else qw_dilation(params)


def suite_dilation_vs_channel(rng: np.random.Generator, draws: int = 50, densities: int = 20) -> SuiteResult:
    worst = 0.0
    for family in ("JC", "K2", "K3", "B"):
        for _ in range(draws):
            params = random_params(rng, family)
            dil = _dilation(params)
            ch = group_channel(params)
            for _ in range(densities):
                rho = random_density(rng, params.n_states)
                worst = max(worst, linalg.max_abs(dil.apply(rho) - apply_channel(ch, rho)))
    return SuiteResult("dilation vs channel", worst, 1e-12)


def suite_flip_generators() -> SuiteResult:
    """Exponentiated generators reproduce the four bit-flip unitaries.

    exp(iH) is taken by the spectral formula V diag(e^{i lam}) V^dagger of
    the Hermitian generator.
    """
    worst = 0.0
    for k in (0, 1):
        for l in (0, 1):
            lam, vec = np.linalg.eigh(bitflip_generator(k, l))
            exp_ih = (vec * np.exp(1j * lam)) @ vec.conj().T
            worst = max(worst, linalg.max_abs(exp_ih - bitflip_unitary(k, l)))
    return SuiteResult("bit-flip generator exponentials", worst, 1e-10)


def suite_dilation_unitarity(rng: np.random.Generator, draws: int = 20) -> SuiteResult:
    worst = 0.0
    for family in ("B", "JC", "K2", "K3"):
        for _ in range(draws):
            u = _dilation(random_params(rng, family)).unitary
            worst = max(worst, linalg.max_abs(u @ u.conj().T - np.eye(len(u))))
    return SuiteResult("dilation unitarity", worst, 1e-14)


def suite_coin_weights(rng: np.random.Generator, draws: int = 20) -> SuiteResult:
    """The walk dilation's coin column squares to the model weights.

    V (|00> (x) |0>) = sum_g u_g |g> (x) |g>, so the coin column u sits at
    rows 5g of the unitary's first column.
    """
    worst = 0.0
    for family in ("JC", "K2", "K3"):
        for _ in range(draws):
            params = random_params(rng, family)
            coin_sq = np.abs(qw_dilation(params).unitary[::5, 0]) ** 2
            worst = max(worst, linalg.max_abs(coin_sq - flip_weights(params)))
    return SuiteResult("coin-column weights", worst, 1e-12)


def suite_pruning_equivalence(rng: np.random.Generator, instances: int = 60,
                              max_leaves: int = 5) -> SuiteResult:
    worst = 0.0
    for i in range(instances):
        family = FAMILIES[i % len(FAMILIES)]
        n_leaves = int(rng.integers(2, max_leaves + 1))
        tree, aln = random_instance(rng, n_leaves, family)
        total = {}
        for engine in ("classical", "quantum", "dual"):
            total[engine] = alignment_loglik(tree, aln, engine=engine).total_log_likelihood
        worst = max(worst,
                    abs(total["classical"] - total["quantum"]),
                    abs(total["classical"] - total["dual"]))
    return SuiteResult("pruning engine equivalence", worst, 1e-8)


def _embed_stack(stack: np.ndarray) -> np.ndarray:
    """A (K, m, m) Kraus stack extended by a zero null row and column, in its own dtype."""
    k, m, _ = stack.shape
    out = np.zeros((k, m + 1, m + 1), dtype=stack.dtype)
    out[:, 1:, 1:] = stack
    return out


def _null_fixed(ops: np.ndarray) -> np.ndarray:
    """A (K, k, k) stack on the non-null characters, embedded in the (k+1)-dim slot.

    The first also carries |0><0|, so the family holds the null level fixed.
    The family stays complex even where the engine's real form would do, so
    the dense references check the engines' real kernels against complex
    gates.
    """
    out = _embed_stack(ops).astype(complex)
    out[0, 0, 0] = 1.0
    return out


def _edge_gate(params: ModelParams) -> np.ndarray:
    """One edge's gate in the state picture, as a Kraus family.

    JC, K2 and K3 run their walk dilation, and B its coin-flip dilation. The
    coin is traced out as Tr_c V (|c><c| (x) rho) V^dagger = sum_j K_j rho K_j^dagger,
    K_j = (<j| (x) 1) V (|c> (x) 1). F has no dilation and runs the adjoint of
    its pruning family.
    """
    if params.family == "F":
        return _null_fixed(prune_operators("F", [params.row], params.pi)[0].conj().transpose(0, 2, 1))
    dil = _dilation(params)
    coin = int(np.argmax(np.diag(dil.coin_state).real))
    v = dil.unitary.reshape(dil.coin_dim, dil.walker_dim, dil.coin_dim, dil.walker_dim)
    return _null_fixed(v[:, :, coin, :])


def _conjugate(ops, rho: np.ndarray, ket: list) -> np.ndarray:
    """sum_K K rho K^dagger with each K on the given 0-based slots of a density tensor."""
    slots = rho.ndim // 2
    bra = [slots + a for a in ket]
    return sum(linalg.apply_on_axes(op, rho, ket, bra) for op in ops)


def gate_circuit_deviations(tree: PhyloTree) -> tuple:
    """The tree's compiled circuit run gate by gate on a dense multi-slot density.

    Slots have k+1 levels, level 0 the null character; the density is a
    tensor with one ket and one bra axis per slot, starting from diag(0, pi).
    A split inserts a null ancilla |0><0| after its slot and conjugates the
    pair by the control-shift; an evolution runs the edge's gate. Returns
    (largest deviation of the non-null diagonal from simulate_tree,
    null-character mass, summed off-diagonal modulus).
    """
    n = tree.n_states + 1
    rho = np.diag(np.concatenate([[0.0], tree.pi])).astype(complex)
    slots = 1
    for gate in compile_circuit(tree):
        r = gate.slot - 1
        if isinstance(gate, SplitGate):
            rho = np.multiply.outer(rho, linalg.projector(0, n))
            rho = np.moveaxis(rho, [2 * slots, 2 * slots + 1], [r + 1, slots + r + 2])
            slots += 1
            rho = _conjugate([control_not(n)], rho, [r, r + 1])
        else:
            rho = _conjugate(_edge_gate(gate.params), rho, [r])
    flat = rho.reshape(n ** slots, n ** slots)
    diag = np.diagonal(flat).real.reshape((n,) * slots)
    block = (slice(1, None),) * slots
    deviation = linalg.max_abs(diag[block] - simulate_tree(tree).values)
    null = diag.copy()
    null[block] = 0.0
    off_diagonal = np.abs(flat - np.diag(np.diagonal(flat))).sum()
    return deviation, float(np.abs(null).sum()), float(off_diagonal)


def dense_pruning(tree: PhyloTree, aln: Alignment) -> np.ndarray:
    """Per-site likelihoods from the quantum pruning map on dense likelihood operators.

    Each site starts from the tensor product of its leaves' projectors
    |x+1><x+1|. The compiled circuit is read backwards, which visits the
    internal nodes in reversed pre-order with each node's two children in
    adjacent slots: every edge applies its pruning Kraus family on its
    slot, and every node pinches its pair with the collective diagonalizer,
    conjugates it by the inverse control-shift and traces out the second
    slot. The last slot is contracted with diag(0, pi).
    """
    n = tree.n_states + 1
    gates = compile_circuit(tree)
    rows = [aln.taxa.index(name) for name in tree.leaf_names]
    pinch = collective_diagonalizer(n).operators
    unshift = control_not(n).conj().T
    root = np.diag(np.concatenate([[0.0], tree.pi]))
    out = []
    for column in aln.data[rows].T:
        slots = len(column)
        joint = functools.reduce(np.kron, [linalg.projector(x + 1, n) for x in column])
        rho = joint.reshape((n,) * (2 * slots))
        for gate in reversed(gates):
            r = gate.slot - 1
            if isinstance(gate, SplitGate):
                rho = _conjugate([unshift], _conjugate(pinch, rho, [r, r + 1]), [r, r + 1])
                rho = linalg.partial_trace(rho.reshape(n ** slots, n ** slots), [n] * slots,
                                           traced=r + 2)
                slots -= 1
                rho = rho.reshape((n,) * (2 * slots))
            else:
                ops = prune_operators(gate.params.family, [gate.params.row], gate.params.pi)[0]
                rho = _conjugate(_null_fixed(ops), rho, [r])
        out.append(np.trace(rho @ root).real)
    return np.array(out)


def suite_gate_circuit(rng: np.random.Generator, leaves=(3,)) -> SuiteResult:
    """The simulation circuit at gate level against simulate_tree, one tree per family and size."""
    worst = 0.0
    for n_leaves in leaves:
        for family in FAMILIES:
            tree, _ = random_instance(rng, n_leaves, family)
            worst = max(worst, *gate_circuit_deviations(tree))
    return SuiteResult("gate-level circuit vs simulate_tree", worst, 1e-12)


def suite_dense_pruning(rng: np.random.Generator, leaves=(3,)) -> SuiteResult:
    """The dense pruning map against the quantum engine, one 2-site tree per family and size."""
    worst = 0.0
    for n_leaves in leaves:
        for family in FAMILIES:
            tree, aln = random_instance(rng, n_leaves, family, n_sites=2)
            expected = alignment_loglik(tree, aln, engine="quantum").likelihood
            worst = max(worst, linalg.max_abs(dense_pruning(tree, aln) - expected))
    return SuiteResult("dense pruning vs quantum engine", worst, 1e-10)


def run_suites(level: str = "default") -> list:
    """Run every suite from one generator seeded with ``SEED``; ``deep`` raises the
    pruning suite to 8-leaf instances and adds 4-leaf trees to the two gate-level suites."""
    rng = np.random.default_rng(SEED)
    deep = level == "deep"
    results = [
        suite_fourier_equivalence(rng, samples=50),
        suite_dilation_vs_channel(rng, draws=50 if deep else 20, densities=20 if deep else 5),
        suite_flip_generators(),
        suite_dilation_unitarity(rng, draws=20 if deep else 10),
        suite_coin_weights(rng, draws=20 if deep else 10),
        suite_pruning_equivalence(rng, instances=200 if deep else 60, max_leaves=8 if deep else 5),
        suite_gate_circuit(rng, leaves=(3, 4) if deep else (3,)),
        suite_dense_pruning(rng, leaves=(3, 4) if deep else (3,)),
    ]
    return results
