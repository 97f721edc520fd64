"""Dense complex linear algebra for multi-slot tensor-product spaces.

All state lives in plain numpy arrays: complex128 for operators, float64 for
probability data. Slots are numbered from 1, with slot 1 the leftmost tensor
factor and the most significant digit of the mixed-radix linear index. The
dimensions of interest stay small (single slots of size <= 5, joint spaces up
to 5**8 entries), so everything is dense and no attempt is made at sparsity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

# Structural predicates (unitary, Hermitian, stochastic) use STRUCT_TOL as the
# max-abs deviation.
STRUCT_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# The real rotation Z @ X; its zero diagonal and antisymmetry make the
# binary-model dilation unitary for every flip weight.
PAULI_Y_ZX = PAULI_Z @ PAULI_X

for _m in (PAULI_X, PAULI_Z, PAULI_Y_ZX):
    _m.setflags(write=False)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got ndim={a.ndim}")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def projector(i: int, dim: int) -> np.ndarray:
    """|i><i| on a dim-dimensional space."""
    p = np.zeros((dim, dim), dtype=complex)
    p[i, i] = 1.0
    return p


def shift_matrix(dim: int) -> np.ndarray:
    """Cyclic shift h with h|i> = |i+1 mod dim>, so h**dim = 1."""
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        h[(i + 1) % dim, i] = 1.0
    return h


def kron(a, b) -> np.ndarray:
    """Tensor product with slot 1 on the left (most significant index)."""
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint_action(s, rho) -> np.ndarray:
    """S rho S^dagger for square S and rho of matching dimension."""
    s = as_matrix(s)
    rho = as_matrix(rho)
    if s.shape[0] != s.shape[1] or s.shape != rho.shape:
        raise ShapeMismatchError(f"adjoint action needs matching square operands, got {s.shape} and {rho.shape}")
    return s @ rho @ s.conj().T


def apply_on_axes(op, tensor: np.ndarray, axes, bra_axes=()) -> np.ndarray:
    """Apply an operator to consecutive axes of a tensor, leaving every other axis alone.

    ``op`` acts jointly on the listed axes, the first listed the most
    significant, and its outputs take their places. For an operator stored
    as a tensor with one ket and one bra axis per slot, list the matching
    bra axes in ``bra_axes``: they get ``op.conj()``, giving op T op^dagger.
    Each is one matrix product on a (before, block, after) view.
    """
    op = np.asarray(op)
    for factor, where in ((op, list(axes)), (op.conj(), list(bra_axes))):
        if where:
            first, stop = where[0], where[-1] + 1
            if where != list(range(first, stop)):
                raise ShapeMismatchError(f"axes {where} are not consecutive")
            shape = tensor.shape
            view = tensor.reshape(math.prod(shape[:first]), math.prod(shape[first:stop]), -1)
            # With a one-column view, factor @ view runs another matmul kernel,
            # whose sums differ in the last bit; the row form rounds as tensordot.
            tensor = (view[:, :, 0] @ factor.T if stop == len(shape) else factor @ view).reshape(shape)
    return tensor


def partial_trace(rho, dims, traced: int) -> np.ndarray:
    """Trace out one slot of a multi-slot operator.

    ``dims`` lists the slot dimensions left to right; ``traced`` is the
    1-based slot to remove. The result acts on the remaining slots in their
    original order and has the same trace as the input.
    """
    rho = as_matrix(rho)
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    if rho.shape != (n, n):
        raise ShapeMismatchError(f"operator is {rho.shape} but slot dims {dims} give total {n}")
    if not 1 <= traced <= len(dims):
        raise ShapeMismatchError(f"slot {traced} out of range for {len(dims)} slots")
    s = len(dims)
    t = traced - 1
    work = rho.reshape(dims + dims)
    work = np.trace(work, axis1=t, axis2=s + t)
    keep = [d for i, d in enumerate(dims) if i != t]
    m = int(np.prod(keep)) if keep else 1
    return work.reshape(m, m)


def max_abs(m) -> float:
    a = np.asarray(m)
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def is_hermitian(m, tol: float = STRUCT_TOL) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and max_abs(m - m.conj().T) <= tol


def is_unitary(m, tol: float = STRUCT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return max_abs(m @ m.conj().T - identity(m.shape[0])) <= tol


def validate_probability_vector(p, tol: float = STRUCT_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ShapeMismatchError("probability vector must be 1-d")
    if not np.isfinite(p).all():
        raise ValueError(f"non-finite probability entry in {p}")
    if p.min() < 0.0:
        raise ValueError(f"negative probability entry {p.min()}")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"probability vector sums to {p.sum()}, not 1")
    return p


@dataclass(frozen=True)
class ProbabilityTensor:
    """s-way array of site-pattern probabilities over the non-null characters.

    values[i_1, ..., i_s] is the probability of observing that character
    pattern across the s taxa; total mass 1, every entry nonnegative.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim < 1:
            raise ShapeMismatchError("tensor needs at least one slot")
        if len(set(v.shape)) != 1:
            raise ShapeMismatchError(f"all slots must share one alphabet, got shape {v.shape}")
        if v.min() < -1e-14:
            raise ValueError(f"negative pattern probability {v.min()}")
        if abs(v.sum() - 1.0) > STRUCT_TOL:
            raise ValueError(f"pattern mass is {v.sum()}, not 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def taxa(self) -> int:
        return self.values.ndim

    @property
    def alphabet(self) -> int:
        return self.values.shape[0]
