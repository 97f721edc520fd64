"""The five substitution models in three interchangeable representations.

Each family is available as (i) a column-stochastic Markov matrix over the
non-null characters, (ii) an operator-sum (Kraus) channel whose diagonal
action equals the Markov matrix, and (iii) a unitary dilation on a
coin (x) walker space whose traced action equals the channel. What each
family takes (its weights, state count, flips, pi and length map) is
declared once, in ``FAMILY``.

Basis order for the 4-state families: characters (A, C, G, T) map to indices
(0, 1, 2, 3) read as 2-bit strings m = 2k + l, so the unitary X^k (x) X^l
permutes index m to m XOR (2k + l) and the group matrices have entries
M[m, n] = w[m XOR n] with w the flip weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .errors import ModelError, ShapeMismatchError
from .channels import KrausChannel

# Slack on a weight that is computed, not given: the group identity weight
# 1 - a - b - c can round to just below 0 on the simplex boundary. Given
# weights a, b, c must lie in [0, 1] exactly.
_EDGE = 1e-12

# The bit-flip group on n = 2 and n = 4 states: _XOR[n][i, j] = i XOR j, and
# row g of _FLIPS[n] is the permutation matrix of |m> -> |m XOR g>, the one
# entry of column j sitting in row j XOR g. B is the one-bit member.
# _FLIP_INDEX[n] is the g of each of flips a, b, c: on 4 states a = X (x) 1,
# b = 1 (x) X and c = X (x) X.
_XOR = {n: np.bitwise_xor.outer(np.arange(n), np.arange(n)) for n in (2, 4)}
_FLIP_INDEX = {2: (1,), 4: (2, 1, 3)}
_FLIPS = {n: (xor == np.arange(n)[:, None, None]).astype(float) for n, xor in _XOR.items()}
# sum_g |g><g| (x) X_g on coin (x) walker space: the block-diagonal control
# of qw_dilation, blocks _FLIPS[4] in order.
_CONTROLLED_FLIPS = np.einsum("gh,gij->gihj", np.eye(4), _FLIPS[4]).reshape(16, 16)
for _t in (*_XOR.values(), *_FLIPS.values(), _CONTROLLED_FLIPS):
    _t.setflags(write=False)


def jc_from_branch_length(t: float) -> ModelParams:
    """4-state one-parameter model at branch length t.

    The per-flip weight is a(t) = (1/4)(1 - e^{-4t/3}), so the total
    probability of observing a change is 3 a(t) = (3/4)(1 - e^{-4t/3}),
    rising from 0 to 3/4 at the stationary limit. This is the unique curve
    for which the matrices compose: markov(a(t1)) markov(a(t2)) =
    markov(a(t1+t2)).
    """
    if t < 0.0:
        raise ModelError(f"branch length {t} is negative")
    return ModelParams.jc(0.25 * (1.0 - math.exp(-4.0 * t / 3.0)))


def binary_from_branch_length(t: float) -> ModelParams:
    """Two-state flip weight a(t) = (1/2)(1 - e^{-2t})."""
    if t < 0.0:
        raise ModelError(f"branch length {t} is negative")
    return ModelParams.binary(0.5 * (1.0 - math.exp(-2.0 * t)))


class Family(NamedTuple):
    """What one model family takes; the validator, Newick reader, optimizer
    and CLI all read it from ``FAMILY``."""

    weights: tuple  # the ModelParams weights it takes, in field order
    n_states: int
    flips: tuple | None = None  # flip family: which weight drives each of flips a, b, c
    takes_pi: bool = False  # carries a stationary distribution pi
    from_length: Callable | None = None  # the map behind an annotation's t=


FAMILY = {
    "JC": Family(("a",), 4, flips=(0, 0, 0), from_length=jc_from_branch_length),
    "K2": Family(("a", "b"), 4, flips=(0, 1, 1)),
    "K3": Family(("a", "b", "c"), 4, flips=(0, 1, 2)),
    "B": Family(("a",), 2, flips=(0,), from_length=binary_from_branch_length),
    "F": Family(("a",), 4, takes_pi=True),
}
FAMILIES = tuple(FAMILY)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Parameters of one substitution model family.

    JC(a), K2(a, b), K3(a, b, c): convex weights of the bit-flip unitaries
    (K2 reuses b for both single-bit flips, JC uses a for all three); the
    identity weight is whatever the flips leave over. B(a): flip probability
    of the two-state model. F(a, pi): identity weight a and stationary
    distribution pi.

    Equality and hashing go by value, pi by its bytes, through a key built
    once at construction, so parameters can key a cache of edge operators.
    """

    family: str
    a: float
    b: float | None = None
    c: float | None = None
    pi: np.ndarray | None = None
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        family = FAMILY.get(self.family)
        if family is None:
            raise ModelError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "a", float(self.a))
        if self.b is not None:
            object.__setattr__(self, "b", float(self.b))
        if self.c is not None:
            object.__setattr__(self, "c", float(self.c))
        given = tuple(name for name in ("a", "b", "c", "pi") if getattr(self, name) is not None)
        takes = family.weights + ("pi",) * family.takes_pi
        if given != takes:
            raise ModelError(f"{self.family} takes parameters ({', '.join(takes)}), "
                             f"got a={self.a}, b={self.b}, c={self.c}, pi={self.pi}")
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ModelError(f"{self.family} weight {name}={value} outside [0, 1]")
        if family.flips:
            given = (self.a, self.b, self.c)
            rest = 1.0 - sum(given[i] for i in family.flips)
            if rest < -_EDGE:
                raise ModelError(f"{self.family} weights exceed the simplex: identity weight {rest}")
        if family.takes_pi:
            pi = np.asarray(self.pi, dtype=float)
            if pi.shape != (4,):
                raise ModelError(f"F needs a length-4 stationary distribution, got shape {pi.shape}")
            try:
                pi = linalg.validate_probability_vector(pi).copy()
            except ValueError as exc:
                raise ModelError(f"F stationary distribution: {exc}") from None
            if pi.min() <= 0.0:
                raise ModelError(f"F stationary distribution must be strictly positive, got {pi}")
            pi.setflags(write=False)
            object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_key", (self.family, self.a, self.b, self.c,
                                          None if self.pi is None else self.pi.tobytes()))

    def __eq__(self, other):
        if not isinstance(other, ModelParams):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def n_states(self) -> int:
        return FAMILY[self.family].n_states

    @property
    def row(self) -> tuple:
        """The weights the family takes, in ``FAMILY`` order: one row of a builder's (B, d) array."""
        return tuple(getattr(self, name) for name in FAMILY[self.family].weights)

    @classmethod
    def jc(cls, a: float) -> "ModelParams":
        return cls("JC", a)

    @classmethod
    def k2(cls, a: float, b: float) -> "ModelParams":
        return cls("K2", a, b=b)

    @classmethod
    def k3(cls, a: float, b: float, c: float) -> "ModelParams":
        return cls("K3", a, b=b, c=c)

    @classmethod
    def binary(cls, a: float) -> "ModelParams":
        return cls("B", a)

    @classmethod
    def felsenstein(cls, a: float, pi) -> "ModelParams":
        return cls("F", a, pi=np.asarray(pi, dtype=float))


def _flip_rows(family: str, x) -> np.ndarray:
    """(B, n) weights w_g of the flips |m> -> |m XOR g>, identity first, of the (B, d) weight rows x.

    Flips a, b, c carry the family's weights (K2 has b=c, JC a=b=c; B has
    flip a alone) and the identity takes the rest, 1 - a - b - c, with
    rounding below 0 on the simplex boundary clipped to 0. Rows are not
    checked against the region: a unit row gives the outcome one weight drives.
    """
    flips = FAMILY[family].flips
    if flips is None:
        raise ModelError(f"{family} is not a flip family")
    x = np.asarray(x, dtype=float)
    w = np.zeros((len(x), FAMILY[family].n_states))
    rest = 1.0
    for i, g in zip(flips, _FLIP_INDEX[w.shape[1]]):
        w[:, g] = x[:, i]
        rest = rest - x[:, i]
    w[:, 0] = rest
    return np.maximum(w, 0.0, out=w)


def flip_weights(params: ModelParams) -> np.ndarray:
    """Weights w_g of the flips |m> -> |m XOR g>, identity first: ``_flip_rows`` of one value."""
    return _flip_rows(params.family, [params.row])[0]


def bitflip_unitary(k: int, l: int) -> np.ndarray:
    """X^k (x) X^l on the 4-state space; permutes m to m XOR (2k+l)."""
    return _FLIPS[4][2 * k + l].astype(complex)


def bitflip_generator(k: int, l: int) -> np.ndarray:
    """Hermitian H with exp(iH) = X^k (x) X^l.

    H = (pi/2) (-(k+l) 1(x)1 + k X(x)1 + l 1(x)X); the three terms commute.
    """
    eye2 = linalg.identity(2)
    h = -(k + l) * linalg.kron(eye2, eye2)
    h = h + k * linalg.kron(linalg.PAULI_X, eye2)
    h = h + l * linalg.kron(eye2, linalg.PAULI_X)
    return (math.pi / 2.0) * h


def markov(params: ModelParams) -> np.ndarray:
    """Column-stochastic substitution matrix M[i, j] = P(child=i | parent=j), prune_matrix^T.

    Flip families (JC, K2, K3 and B): M[m, n] = w[m XOR n] with w the flip
    weights (symmetric, doubly stochastic); for B, (1-a) 1 + a X.
    F: a 1 + (1-a) pi 1^T, the column-stochastic orientation in which the
    update reads p' = a p + (1-a) pi.
    """
    return prune_matrix(params.family, [params.row], params.pi)[0].T.copy()


def group_channel(params: ModelParams) -> KrausChannel:
    """Operator-sum form of a flip family: {sqrt(w_g) X_g}, the ``prune_operators`` stack.

    Every flip keeps its operator, a zero-weight one as the zero matrix;
    diagonalizing the output of this channel applied to a diagonal density
    reproduces markov(params) acting on the weight vector.
    """
    if FAMILY[params.family].flips is None:
        raise ModelError(f"{params.family} is not a flip family")
    return KrausChannel(prune_operators(params.family, [params.row])[0], label=f"{params.family}_channel")


def felsenstein_instruments(pi) -> np.ndarray:
    """The real (16, 4, 4) stack of single-entry operators sqrt(pi_j) |i><j|, (B, 16, 4, 4) for (B, 4) pi.

    In the observable orientation their operator sum has diagonal action
    L -> 1 <pi, L>; together with sqrt(a) 1 they propagate likelihoods for
    the F model.
    """
    pi = np.asarray(pi, dtype=float)
    i, j = np.divmod(np.arange(16), 4)
    ops = np.zeros((*pi.shape[:-1], 16, 4, 4))
    ops[..., np.arange(16), i, j] = np.sqrt(pi)[..., j]
    return ops


@dataclass(frozen=True)
class Dilation:
    """A unitary on coin (x) walker space realizing a channel by partial trace."""

    unitary: np.ndarray
    coin_state: np.ndarray
    coin_dim: int
    label: str = ""

    def __post_init__(self):
        v = linalg.as_matrix(self.unitary)
        c = linalg.as_matrix(self.coin_state)
        if not linalg.is_unitary(v):
            raise ModelError(f"dilation '{self.label}' is not unitary")
        if c.shape != (self.coin_dim, self.coin_dim):
            raise ShapeMismatchError(f"coin state is {c.shape}, expected dim {self.coin_dim}")
        if (not linalg.is_hermitian(c) or abs(np.trace(c).real - 1.0) > linalg.STRUCT_TOL
                or np.linalg.eigvalsh(c).min() < -linalg.STRUCT_TOL):
            raise ModelError(f"dilation '{self.label}' coin state is not a density matrix")
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "unitary", v)
        object.__setattr__(self, "coin_state", c)

    @property
    def walker_dim(self) -> int:
        return self.unitary.shape[0] // self.coin_dim

    def apply(self, rho) -> np.ndarray:
        """Tr_coin V (coin_state (x) rho) V^dagger."""
        rho = linalg.as_matrix(rho)
        joint = linalg.adjoint_action(self.unitary, linalg.kron(self.coin_state, rho))
        return linalg.partial_trace(joint, [self.coin_dim, self.walker_dim], traced=1)


def _householder_with_first_column(v: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the unit vector v."""
    n = v.size
    w = np.zeros(n)
    w[0] = 1.0
    w = w - v
    norm2 = float(w @ w)
    if norm2 < 1e-28:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(w, w) / norm2


def qw_dilation(params: ModelParams) -> Dilation:
    """Controlled-bit-flip dilation of a group-based model.

    V = (sum_kl |kl><kl| (x) X^k (x) X^l) (U_coin (x) 1) with a 4-dim coin
    started in |00><00|; the coin unitary's first column carries the square
    roots of the model weights, completed to an orthogonal matrix by a
    Householder reflection. B, on 2 states, has binary_dilation instead.
    """
    if params.n_states != 4:
        raise ModelError(f"walk dilation needs a 4-state flip family, not {params.family}")
    u_coin = _householder_with_first_column(np.sqrt(flip_weights(params))).astype(complex)
    v = _CONTROLLED_FLIPS @ linalg.kron(u_coin, linalg.identity(4))
    return Dilation(v, linalg.projector(0, 4), coin_dim=4, label=f"{params.family}_dilation")


def binary_dilation(params: ModelParams) -> Dilation:
    """Coin-flip dilation of the two-state model.

    V = sqrt(w_0) 1(x)1 + sqrt(w_1) (ZX)(x)X with w the flip weights and coin
    state |1><1|; unitary because ZX is antisymmetric so the cross terms
    cancel. The traced action is w_0 rho + w_1 X rho X, group_channel(params).
    """
    if params.n_states != 2:
        raise ModelError(f"coin-flip dilation needs the 2-state flip family, not {params.family}")
    w0, w1 = np.sqrt(flip_weights(params))
    eye2 = linalg.identity(2)
    v = w0 * linalg.kron(eye2, eye2) + w1 * linalg.kron(linalg.PAULI_Y_ZX, linalg.PAULI_X)
    return Dilation(v, linalg.projector(1, 2), coin_dim=2, label="B_dilation")


def prune_matrix(family: str, x, pi=None) -> np.ndarray:
    """(B, n, n) likelihood-propagation matrices W = M^T of the (B, d) weight rows x of ``family``.

    W[i, j] = P(child=j | parent=i). The flip families give W[m, n] =
    w[m XOR n] (symmetric, W = M); F gives a 1 + (1 - a) 1 pi^T, the standard
    root-to-tip orientation of the pruning recursion, for a (4,) or (B, 4) pi.
    """
    if family == "F":
        a = np.asarray(x, dtype=float)[:, :, None]
        return a * np.eye(4) + (1.0 - a) * np.asarray(pi, dtype=float)[..., None, :]
    w = _flip_rows(family, x)
    return np.take(w, _XOR[w.shape[1]], axis=1)


def prune_operators(family: str, x, pi=None) -> np.ndarray:
    """Real (B, K, n, n) Kraus stacks whose squared moduli column-wise sum to prune_matrix.

    For any diagonal likelihood operator L, the diagonal of sum_k A_k L A_k^+
    equals W @ diag(L); this is the per-edge propagator of the quantum
    pruning circuit. K is fixed per family, and an operator of weight 0 is
    kept as the zero matrix. The flip families give their channels' K = n
    operators sqrt(w_g) X_g; F gives K = 17, sqrt(a) 1 before sqrt(1 - a)
    times the instruments of its pi.
    """
    if family == "F":
        a = np.asarray(x, dtype=float)[:, :, None, None]
        return np.concatenate([np.sqrt(a) * np.eye(4), np.sqrt(1.0 - a) * felsenstein_instruments(pi)], 1)
    w = _flip_rows(family, x)
    return np.sqrt(w)[:, :, None, None] * _FLIPS[w.shape[1]]
