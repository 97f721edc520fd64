"""Discrete-time quantum walks driving per-taxon character evolution.

A walker lives on a size-N cycle; a 2-dim coin is tossed by a unitary U and
conditions the shift direction. One edge of evolution applies k walk steps
followed by the decohering diagonalizer, which induces a circulant stochastic
matrix on diagonal densities. The two-step shift distribution has a closed
form in the Hadamard square M = U o U*, validated here against the direct
matrix simulation (the simulation is the ground truth; the closed form is
reconciled to it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import apply_channel, diagonalizer
from .errors import ShapeMismatchError
from .linalg import ProbabilityTensor

COIN_LABELS = ("+", "-")


def coin_state_from_label(label: str) -> np.ndarray:
    """Pure coin density for a basis label: '+' is index 0, '-' is index 1."""
    if label not in COIN_LABELS:
        raise ShapeMismatchError(f"coin label must be one of {COIN_LABELS}, got {label!r}")
    return linalg.projector(COIN_LABELS.index(label), 2)


@dataclass(frozen=True)
class WalkConfig:
    """One edge's walk: coin unitary, initial coin density, steps, cycle size."""

    coin_unitary: np.ndarray
    coin_state: np.ndarray
    steps: int = 2
    walker_dim: int = 4

    def __post_init__(self):
        u = linalg.as_matrix(self.coin_unitary)
        c = linalg.as_matrix(self.coin_state)
        if u.shape != (2, 2) or not linalg.is_unitary(u):
            raise ShapeMismatchError("coin unitary must be a 2x2 unitary")
        if c.shape != (2, 2):
            raise ShapeMismatchError(f"coin state must be 2x2, got {c.shape}")
        if not linalg.is_hermitian(c) or abs(np.trace(c).real - 1.0) > linalg.STRUCT_TOL:
            raise ShapeMismatchError("coin state must be a valid density matrix")
        if self.steps < 1:
            raise ShapeMismatchError(f"steps must be >= 1, got {self.steps}")
        if self.walker_dim < 2:
            raise ShapeMismatchError(f"walker dimension must be >= 2, got {self.walker_dim}")
        u = u.copy()
        c = c.copy()
        u.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "coin_unitary", u)
        object.__setattr__(self, "coin_state", c)

    @classmethod
    def with_label(cls, coin_unitary, label: str, steps: int = 2, walker_dim: int = 4) -> "WalkConfig":
        return cls(coin_unitary, coin_state_from_label(label), steps=steps, walker_dim=walker_dim)


def walk_unitary(cfg: WalkConfig) -> np.ndarray:
    """Conditional-shift unitary V = (P_+ (x) h + P_- (x) h^dagger)(U (x) 1)."""
    n = cfg.walker_dim
    h = linalg.shift_matrix(n)
    shift = linalg.kron(linalg.projector(0, 2), h) + linalg.kron(linalg.projector(1, 2), h.conj().T)
    return shift @ linalg.kron(cfg.coin_unitary, linalg.identity(n))


def qw_step_map(cfg: WalkConfig, rho) -> np.ndarray:
    """Walker state after k walk steps: Tr_coin V^k (coin (x) rho) V^dagger^k."""
    rho = linalg.as_matrix(rho)
    n = cfg.walker_dim
    if rho.shape != (n, n):
        raise ShapeMismatchError(f"walker state is {rho.shape}, expected {(n, n)}")
    v = np.linalg.matrix_power(walk_unitary(cfg), cfg.steps)
    joint = linalg.adjoint_action(v, linalg.kron(cfg.coin_state, rho))
    return linalg.partial_trace(joint, [2, n], traced=1)


def coin_distribution(u, label: str, walker_dim: int) -> np.ndarray:
    """Net-shift distribution of the two-step walk, over shifts mod N.

    With M = U o U* and coin basis state c, the three branches contribute
    q[+2] = M[0,0] M[0,c], q[0] = M[1,0] M[0,c] + M[0,1] M[1,c],
    q[-2] = M[1,1] M[1,c], folded onto the cycle. Branches landing on the
    same position carry orthogonal coin components (or, at N=2, a
    deterministic position), so the incoherent sum is exact for every N.
    """
    u = linalg.as_matrix(u)
    if u.shape != (2, 2) or not linalg.is_unitary(u):
        raise ShapeMismatchError("coin unitary must be a 2x2 unitary")
    if label not in COIN_LABELS:
        raise ShapeMismatchError(f"coin label must be one of {COIN_LABELS}, got {label!r}")
    c = COIN_LABELS.index(label)
    m = np.abs(u) ** 2
    q = np.zeros(walker_dim)
    q[2 % walker_dim] += m[0, 0] * m[0, c]
    q[0] += m[1, 0] * m[0, c] + m[0, 1] * m[1, c]
    q[(-2) % walker_dim] += m[1, 1] * m[1, c]
    return linalg.validate_probability_vector(q)


def step_transition_matrix(cfg: WalkConfig) -> np.ndarray:
    """Stochastic matrix induced on diagonal densities by walk + decoherence.

    Column j is the diagonal of the diagonalized walk output started from
    the point mass |j><j|; translation invariance of the walk makes this a
    circulant.
    """
    n = cfg.walker_dim
    diag = diagonalizer(n)
    t = np.empty((n, n))
    for j in range(n):
        out = apply_channel(diag, qw_step_map(cfg, linalg.projector(j, n)))
        t[:, j] = np.diag(out).real
    return t


def evolve_taxa_qw(tensor: ProbabilityTensor, cfgs) -> ProbabilityTensor:
    """Evolve each taxon slot independently by its walk's induced transition."""
    cfgs = list(cfgs)
    if len(cfgs) != tensor.taxa:
        raise ShapeMismatchError(f"{tensor.taxa} slots but {len(cfgs)} walk configs")
    values = tensor.values
    for slot, cfg in enumerate(cfgs):
        if cfg.walker_dim != tensor.alphabet:
            raise ShapeMismatchError(
                f"slot {slot + 1} walk has dimension {cfg.walker_dim}, tensor alphabet is {tensor.alphabet}")
        t = step_transition_matrix(cfg)
        values = linalg.apply_on_axes(t, values, [slot])
    return ProbabilityTensor(values)


def closed_form_two_taxon(tensor: ProbabilityTensor, q) -> ProbabilityTensor:
    """Double cyclic convolution p~[m, n] = sum_ab p[m-a, n-b] q[a] q[b]."""
    if tensor.taxa != 2:
        raise ShapeMismatchError(f"closed form is for 2-taxon tensors, got {tensor.taxa}")
    q = linalg.validate_probability_vector(np.asarray(q, dtype=float))
    n = tensor.alphabet
    if q.size != n:
        raise ShapeMismatchError(f"shift distribution has size {q.size}, alphabet is {n}")
    circ = q[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    return ProbabilityTensor(circ @ tensor.values @ circ.T)
