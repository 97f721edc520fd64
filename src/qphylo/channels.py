"""Operator-sum (Kraus) channel machinery and the lineage-splitting map.

The character alphabet always includes a null symbol at index 0, so a
biological alphabet of m characters lives in an (m+1)-dimensional space.
Diagonal densities carry weight 0 on the null symbol; the splitting map uses
it as the fresh ancilla that a control-shift copies the parent character
onto.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeMismatchError
from .linalg import ProbabilityTensor


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by a (K, d, d) stack of square operators.

    The stack is stored as one read-only complex128 array. Channels
    constructed in this module are trace preserving (the operators resolve
    identity to better than 1e-12) unless ``trace_preserving`` is False,
    which flags a deliberate pinching like the collective diagonalizer.
    """

    operators: np.ndarray
    label: str = ""
    trace_preserving: bool = True

    def __post_init__(self):
        try:
            ops = np.array(self.operators, dtype=complex)
        except ValueError as exc:  # operators of different shapes do not stack
            raise ShapeMismatchError(f"Kraus operators do not stack: {exc}") from None
        if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
            raise ShapeMismatchError(f"a channel needs a nonempty stack of square operators, "
                                     f"got shape {ops.shape}")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        if self.trace_preserving:
            dev = self.completeness_defect()
            if dev > linalg.STRUCT_TOL:
                raise ValueError(f"channel '{self.label}' is not trace preserving (defect {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def completeness_defect(self) -> float:
        acc = (self.operators.conj().transpose(0, 2, 1) @ self.operators).sum(axis=0)
        return linalg.max_abs(acc - linalg.identity(self.dim))


@dataclass(frozen=True)
class DiagonalDensity:
    """Diagonal density matrix over the full alphabet, null weight pinned to 0."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ShapeMismatchError("diagonal density needs a 1-d weight vector of size >= 2")
        if w[0] != 0.0:
            raise ValueError(f"null-character weight must be exactly 0, got {w[0]}")
        if w.min() < -1e-14:
            raise ValueError(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > linalg.STRUCT_TOL:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_block(cls, block) -> "DiagonalDensity":
        """Build from weights over the non-null characters only."""
        block = np.asarray(block, dtype=float)
        return cls(np.concatenate([[0.0], block]))

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def block(self) -> np.ndarray:
        """Weights over the non-null characters."""
        return self.weights[1:]

    def matrix(self) -> np.ndarray:
        return np.diag(self.weights).astype(complex)


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Evaluate sum_k K_k rho K_k^dagger."""
    rho = linalg.as_matrix(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ShapeMismatchError(f"state is {rho.shape}, channel acts on dim {ch.dim}")
    ops = ch.operators
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def _require_dim(n: int):
    if n < 2:
        raise ShapeMismatchError(f"need dimension >= 2, got {n}")


def _projectors(levels: np.ndarray, dim: int) -> np.ndarray:
    """The stack of basis projectors |l><l| on a dim-dimensional space, one per level."""
    ops = np.zeros((len(levels), dim, dim), dtype=complex)
    ops[np.arange(len(levels)), levels, levels] = 1.0
    return ops


def diagonalizer(n: int) -> KrausChannel:
    """The decoherence map that keeps the diagonal and zeroes everything else.

    Operators are the n basis projectors; an orthogonal resolution of
    identity, so the channel is exactly trace preserving and idempotent.
    """
    _require_dim(n)
    return KrausChannel(_projectors(np.arange(n), n), label=f"diagonalizer({n})")


def diagonalizer_fourier(n: int) -> KrausChannel:
    """Same action as :func:`diagonalizer` in a uniformly-weighted unitary form.

    Operators are sqrt(1/n) * U_k with U_k = sum_l w^{kl} |l><l| and
    w = exp(2 pi i / n): averaging over the n diagonal phase unitaries
    cancels every off-diagonal entry.
    """
    _require_dim(n)
    omega = np.exp(2j * np.pi / n)
    levels = np.arange(n)
    ops = np.zeros((n, n, n), dtype=complex)
    ops[:, levels, levels] = np.sqrt(1.0 / n) * omega ** np.outer(levels, levels)
    return KrausChannel(ops, label=f"diagonalizer_fourier({n})")


def collective_diagonalizer(n: int) -> KrausChannel:
    """Pinch onto the |kk> subspace of a two-slot space.

    Operators are P_k (x) P_k, k = 0..n-1. This is trace *non-increasing*
    (any weight off the collective diagonal is discarded), so the
    completeness invariant is deliberately waived via the flag.
    """
    _require_dim(n)
    return KrausChannel(_projectors((n + 1) * np.arange(n), n * n),
                        label=f"collective_diagonalizer({n})", trace_preserving=False)


def control_not(n: int) -> np.ndarray:
    """The control-shift unitary sum_k P_k (x) h^k on two n-dim slots.

    Acts as |i>|j> -> |i>|j + i mod n|; a permutation matrix, so exactly
    unitary.
    """
    _require_dim(n)
    h = linalg.shift_matrix(n)
    out = np.zeros((n * n, n * n), dtype=complex)
    hk = linalg.identity(n)
    for k in range(n):
        out += linalg.kron(linalg.projector(k, n), hk)
        hk = h @ hk
    return out


def split(rho: DiagonalDensity) -> ProbabilityTensor:
    """Duplicate one lineage into two perfectly correlated ones.

    Conjugating rho (x) |0><0| by the control-shift copies the parent
    character onto the null ancilla, giving the two-taxon pattern tensor
    p_ij = p_i * delta_ij over the non-null characters: ``split_at`` on the
    one-taxon tensor. The full-matrix conjugation is exercised by the tests.
    """
    return ProbabilityTensor(split_at(rho.block, 1))


def split_at(values: np.ndarray, k: int) -> np.ndarray:
    """Duplicate slot k of an s-taxon pattern array into slots k and k+1.

    Equivalent to applying the control-shift on slot k and a fresh null
    ancilla inserted after it; marginalizing slot k+1 of the result recovers
    the input.
    """
    s = values.ndim
    if not 1 <= k <= s:
        raise ShapeMismatchError(f"slot {k} out of range for {s} taxa")
    m = values.shape[k - 1]
    # out[..., i_k, i_{k+1}, ...] = in[..., i_k, ...] * delta(i_k, i_{k+1})
    shape = [1] * (k - 1) + [m, m] + [1] * (s - k)
    return np.expand_dims(values, axis=k) * np.eye(m).reshape(shape)
