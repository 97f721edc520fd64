"""The five substitution models in three interchangeable representations.

Each family is available as (i) a column-stochastic Markov matrix over the
non-null characters, (ii) an operator-sum (Kraus) channel whose diagonal
action equals the Markov matrix, and (iii) a unitary dilation on a
coin (x) walker space whose traced action equals the channel.

Basis order for the 4-state families: characters (A, C, G, T) map to indices
(0, 1, 2, 3) read as 2-bit strings m = 2k + l, so the unitary X^k (x) X^l
permutes index m to m XOR (2k + l) and the group matrices have entries
M[m, n] = lambda[m XOR n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ModelError, NotUnistochasticError, ShapeMismatchError
from .channels import KrausChannel

GROUP_FAMILIES = ("JC", "K2", "K3")
FAMILIES = GROUP_FAMILIES + ("B", "F")

# Slack on a weight that is computed, not given: the group identity weight
# 1 - a - b - c can round to just below 0 on the simplex boundary. Given
# weights a, b, c must lie in [0, 1] exactly.
_EDGE = 1e-12

# The bit-flip group on n = 2 and n = 4 states: _XOR[n][i, j] = i XOR j, and
# row g of _FLIPS[n] is the permutation matrix of |m> -> |m XOR g>, the one
# entry of column j sitting in row j XOR g. B is the one-bit member.
_XOR = {n: np.bitwise_xor.outer(np.arange(n), np.arange(n)) for n in (2, 4)}
_FLIPS = {n: (xor == np.arange(n)[:, None, None]).astype(complex) for n, xor in _XOR.items()}
# sum_g |g><g| (x) X_g on coin (x) walker space: the block-diagonal control
# of qw_dilation, blocks _FLIPS[4] in order.
_CONTROLLED_FLIPS = np.einsum("gh,gij->gihj", np.eye(4), _FLIPS[4]).reshape(16, 16)
for _t in (*_XOR.values(), *_FLIPS.values(), _CONTROLLED_FLIPS):
    _t.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Parameters of one substitution model family.

    JC(a), K2(a, b), K3(a, b, c): convex weights of the bit-flip unitaries
    (K2 reuses b for both single-bit flips, JC uses a for all three); the
    identity weight is whatever the flips leave over. B(a): flip probability
    of the two-state model. F(a, pi): identity weight a and stationary
    distribution pi.

    Equality and hashing go by value, pi by its bytes, so parameters can key
    a cache of edge operators.
    """

    family: str
    a: float
    b: float | None = None
    c: float | None = None
    pi: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "a", float(self.a))
        if self.b is not None:
            object.__setattr__(self, "b", float(self.b))
        if self.c is not None:
            object.__setattr__(self, "c", float(self.c))
        expect = {"JC": (False, False, False), "K2": (True, False, False),
                  "K3": (True, True, False), "B": (False, False, False),
                  "F": (False, False, True)}[self.family]
        have = (self.b is not None, self.c is not None, self.pi is not None)
        if have != expect:
            raise ModelError(f"{self.family} takes parameters {self._signature()}, "
                             f"got a={self.a}, b={self.b}, c={self.c}, pi={self.pi}")
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ModelError(f"{self.family} weight {name}={value} outside [0, 1]")
        if self.family in GROUP_FAMILIES:
            rest = 1.0 - sum(self.flip_weights())
            if rest < -_EDGE:
                raise ModelError(f"{self.family} weights exceed the simplex: identity weight {rest}")
        if self.family == "F":
            pi = np.asarray(self.pi, dtype=float)
            if pi.shape != (4,):
                raise ModelError(f"F needs a length-4 stationary distribution, got shape {pi.shape}")
            if pi.min() <= 0.0:
                raise ModelError(f"F stationary distribution must be strictly positive, got {pi}")
            if abs(pi.sum() - 1.0) > linalg.STRUCT_TOL:
                raise ModelError(f"F stationary distribution sums to {pi.sum()}, not 1")
            pi = pi.copy()
            pi.setflags(write=False)
            object.__setattr__(self, "pi", pi)

    def _key(self) -> tuple:
        return (self.family, self.a, self.b, self.c, None if self.pi is None else self.pi.tobytes())

    def __eq__(self, other):
        if not isinstance(other, ModelParams):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _signature(self) -> str:
        return {"JC": "(a)", "K2": "(a, b)", "K3": "(a, b, c)", "B": "(a)", "F": "(a, pi)"}[self.family]

    def flip_weights(self) -> tuple:
        """(a, b, c) after family symmetry: K2 has b=c, JC has a=b=c."""
        if self.family == "JC":
            return (self.a, self.a, self.a)
        if self.family == "K2":
            return (self.a, self.b, self.b)
        if self.family == "K3":
            return (self.a, self.b, self.c)
        raise ModelError(f"{self.family} has no flip-weight table")

    @property
    def n_states(self) -> int:
        return 2 if self.family == "B" else 4

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


@dataclass(frozen=True)
class WeightTable:
    """Convex weights lam[k, l] of the four bit-flip unitaries, sum 1."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (2, 2):
            raise ShapeMismatchError(f"weight table must be 2x2, got {lam.shape}")
        if lam.min() < -_EDGE:
            raise ModelError(f"negative weight {lam.min()} in table")
        if abs(lam.sum() - 1.0) > linalg.STRUCT_TOL:
            raise ModelError(f"weight table sums to {lam.sum()}, not 1")
        lam = np.clip(lam, 0.0, None)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def vector(self) -> np.ndarray:
        """Weights in linear order m = 2k + l: (lam00, lam01, lam10, lam11)."""
        return self.lam.reshape(4)


def weights(params: ModelParams) -> WeightTable:
    """Weight table (lam00, lam10, lam01, lam11) = (1-a-b-c, a, b, c)."""
    a, b, c = params.flip_weights()
    lam = np.zeros((2, 2))
    lam[0, 0] = 1.0 - a - b - c
    lam[1, 0] = a
    lam[0, 1] = b
    lam[1, 1] = c
    return WeightTable(lam)


def _flip_vector(params: ModelParams) -> np.ndarray:
    """Weights w_g of the flips in table order, identity first: B gives (1-a, a)."""
    if params.family == "B":
        return np.array([1.0 - params.a, params.a])
    return weights(params).vector


def _flip_kraus(w: np.ndarray) -> tuple:
    """The operators sqrt(w_g) X_g of the flips with positive weight."""
    if w.min() < 0.0:
        raise ModelError(f"flip weights {w.tolist()} outside [0, 1]")
    flips = _FLIPS[w.size]
    return tuple(math.sqrt(x) * flips[g] for g, x in enumerate(w) if x > 0.0)


def bitflip_unitary(k: int, l: int) -> np.ndarray:
    """X^k (x) X^l on the 4-state space; permutes m to m XOR (2k+l)."""
    return _FLIPS[4][2 * k + l].copy()


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
    """Column-stochastic substitution matrix, M[i, j] = P(child=i | parent=j).

    Flip families (JC, K2, K3 and B): M[m, n] = w[m XOR n] with w the flip
    weights (symmetric, doubly stochastic); for B, (1-a) 1 + a X.
    F: a 1 + (1-a) pi 1^T, the column-stochastic orientation in which the
    update reads p' = a p + (1-a) pi.
    """
    if params.family == "F":
        a = params.a
        return a * np.eye(4) + (1.0 - a) * np.outer(params.pi, np.ones(4))
    return _flip_vector(params)[_XOR[params.n_states]]


def validate_markov(m: np.ndarray, doubly_stochastic: bool = False, tol: float = linalg.STRUCT_TOL) -> None:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"Markov matrix must be square, got {m.shape}")
    if m.min() < -1e-14:
        raise ModelError(f"negative transition probability {m.min()}")
    if linalg.max_abs(m.sum(axis=0) - 1.0) > tol:
        raise ModelError("columns do not sum to 1")
    if doubly_stochastic and linalg.max_abs(m.sum(axis=1) - 1.0) > tol:
        raise ModelError("rows do not sum to 1")


def group_channel(params: ModelParams) -> KrausChannel:
    """Operator-sum form of a group-based model: {sqrt(lam_kl) X^k (x) X^l}.

    Operators with zero weight are dropped; diagonalizing the output of this
    channel applied to a diagonal density reproduces markov(params) acting on
    the weight vector.
    """
    if params.family not in GROUP_FAMILIES:
        raise ModelError(f"group channel is defined for {GROUP_FAMILIES}, not {params.family}")
    return KrausChannel(_flip_kraus(weights(params).vector), label=f"{params.family}_channel")


def binary_channel(a: float) -> KrausChannel:
    """Two-state flip channel {sqrt(1-a) 1, sqrt(a) X}."""
    if not 0.0 <= a <= 1.0:
        raise ModelError(f"binary flip weight {a} outside [0, 1]")
    return KrausChannel(_flip_kraus(_flip_vector(ModelParams.binary(a))), label="B_channel")


def felsenstein_instruments(pi) -> tuple:
    """The 16 single-entry operators sqrt(pi_j) |i><j|.

    In the observable orientation their operator sum has diagonal action
    L -> 1 <pi, L>; together with sqrt(a) 1 they propagate likelihoods for
    the F model.
    """
    i, j = np.divmod(np.arange(16), 4)
    ops = np.zeros((16, 4, 4), dtype=complex)
    ops[np.arange(16), i, j] = np.sqrt(np.asarray(pi, dtype=float))[j]
    return tuple(ops)


@dataclass(frozen=True)
class Dilation:
    """A unitary on coin (x) walker space realizing a channel by partial trace."""

    unitary: np.ndarray
    coin_state: np.ndarray
    coin_dim: int
    label: str = ""
    metadata: dict = field(default_factory=dict)

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
    Householder reflection.
    """
    lam_vec = weights(params).vector
    first_col = np.sqrt(lam_vec)
    u_coin = _householder_with_first_column(first_col).astype(complex)
    v = _CONTROLLED_FLIPS @ linalg.kron(u_coin, linalg.identity(4))
    return Dilation(v, linalg.projector(0, 4), coin_dim=4, label=f"{params.family}_dilation",
                    metadata={"coin_column": first_col.tolist()})


def binary_dilation(a: float) -> Dilation:
    """Coin-flip dilation of the two-state model.

    V = sqrt(a) 1(x)1 + sqrt(1-a) (ZX)(x)X with coin state |1><1|; unitary
    because ZX is antisymmetric so the cross terms cancel. The traced action
    is a rho + (1-a) X rho X, i.e. flip weight 1-a for input weight a; the
    realized weight is verified against both candidates at construction and
    recorded in the metadata rather than silently relabeled.
    """
    if not 0.0 <= a <= 1.0:
        raise ModelError(f"binary flip weight {a} outside [0, 1]")
    eye2 = linalg.identity(2)
    v = math.sqrt(a) * linalg.kron(eye2, eye2) + math.sqrt(1.0 - a) * linalg.kron(linalg.PAULI_Y_ZX, linalg.PAULI_X)
    dil = Dilation(v, linalg.projector(1, 2), coin_dim=2, label="B_dilation")
    probe = np.diag([1.0, 0.0]).astype(complex)
    flipped = float(dil.apply(probe)[1, 1].real)
    matches = min(("a", a), ("1-a", 1.0 - a), key=lambda item: abs(item[1] - flipped))
    dil.metadata.update(input_weight=a, flip_weight=matches[1], matches=matches[0])
    return dil


_KLEIN_CHARACTERS = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
], dtype=float)  # chi[r, g] with g = 2k+l and chi_r(g) = (-1)^{<r,g>}


def _klein_structure(m: np.ndarray, tol: float) -> np.ndarray | None:
    """Return the weight vector lam if M[i, j] = lam[i XOR j], else None."""
    if m.shape != (4, 4):
        return None
    lam = m[:, 0].copy()
    return None if linalg.max_abs(m - lam[_XOR[4]]) > tol else lam


def unitary_from_markov(m, rng=0, max_starts: int = 64, max_iter: int = 500,
                        tol: float = 1e-8) -> np.ndarray:
    """Find a unitary U with U o U* equal to a doubly stochastic matrix.

    Group-structure input is parameterized as U = sum_g c_g X^k (x) X^l with
    |c_g|^2 = lam_g, solving for the three free phases; generic input runs a
    least-squares search over the free entry phases of sqrt(M) o e^{i theta}
    (first row and column pinned to zero). Both paths polish the candidate to
    the nearest unitary and verify the Hadamard-square residual. Failure
    after the start budget raises NotUnistochasticError: not every doubly
    stochastic matrix has such a unitary.
    """
    m = np.asarray(m, dtype=float)
    validate_markov(m, doubly_stochastic=True)
    n = m.shape[0]
    rng = np.random.default_rng(rng)

    if linalg.is_permutation_matrix(m):
        return np.round(m).astype(complex)
    if n == 2:
        a = m[1, 0]
        u = np.array([[math.sqrt(1.0 - a), math.sqrt(a)],
                      [math.sqrt(a), -math.sqrt(1.0 - a)]], dtype=complex)
        return u

    lam = _klein_structure(m, tol=linalg.STRUCT_TOL)
    best = None
    for start in range(max_starts):
        if lam is not None:
            candidate = _solve_klein_phases(lam, rng, start, max_iter)
        else:
            candidate = _solve_generic_phases(m, rng, start, max_iter)
        u = _nearest_unitary(candidate)
        residual = linalg.max_abs(np.abs(u) ** 2 - m)
        if best is None or residual < best[0]:
            best = (residual, u)
        if residual < tol / 10.0:
            break
    residual, u = best
    if residual >= tol:
        raise NotUnistochasticError(
            f"no unitary with the requested Hadamard square within {tol:g} "
            f"after {max_starts} starts (best residual {residual:.3e})",
            best_residual=residual)
    return u


def _solve_klein_phases(lam: np.ndarray, rng: np.random.Generator, start: int, max_iter: int) -> np.ndarray:
    roots = np.sqrt(lam)

    def coefficients(phases: np.ndarray) -> np.ndarray:
        c = roots.astype(complex)
        c[1:] = c[1:] * np.exp(1j * phases)
        return c

    def residuals(phases: np.ndarray) -> np.ndarray:
        c = coefficients(phases)
        hat = _KLEIN_CHARACTERS @ c
        return np.abs(hat) ** 2 - 1.0

    x0 = np.zeros(3) if start == 0 else rng.uniform(0.0, 2.0 * np.pi, size=3)
    return coefficients(_least_squares(residuals, x0, max_iter))[_XOR[4]]  # sum_g c_g X_g


def _solve_generic_phases(m: np.ndarray, rng: np.random.Generator, start: int, max_iter: int) -> np.ndarray:
    n = m.shape[0]
    roots = np.sqrt(m)
    free = [(i, j) for i in range(1, n) for j in range(1, n)]

    def build(x: np.ndarray) -> np.ndarray:
        theta = np.zeros((n, n))
        for idx, (i, j) in enumerate(free):
            theta[i, j] = x[idx]
        return roots * np.exp(1j * theta)

    def residuals(x: np.ndarray) -> np.ndarray:
        u = build(x)
        gram = u @ u.conj().T - np.eye(n)
        out = []
        for i in range(n):
            for j in range(i, n):
                out.append(gram[i, j].real)
                if j > i:
                    out.append(gram[i, j].imag)
        return np.array(out)

    x0 = np.zeros(len(free)) if start == 0 else rng.uniform(0.0, 2.0 * np.pi, size=len(free))
    return build(_least_squares(residuals, x0, max_iter))


def _least_squares(residuals, x0: np.ndarray, max_iter: int) -> np.ndarray:
    """Levenberg-Marquardt minimizer of residuals from x0, at pinned tolerances.

    scipy.optimize is imported here, not at module load, so that the
    likelihood, fit and simulate paths run on numpy alone.
    """
    from scipy.optimize import least_squares

    return least_squares(residuals, x0, method="lm", max_nfev=max_iter,
                         xtol=1e-15, ftol=1e-15, gtol=1e-15).x


def _nearest_unitary(candidate: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(candidate)
    return w @ vh


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


def prune_matrix(params: ModelParams) -> np.ndarray:
    """Likelihood-propagation matrix W = markov(params)^T.

    W[i, j] = P(child=j | parent=i); symmetric families have W = M, and for
    F this is the standard root-to-tip orientation of the pruning recursion.
    """
    return markov(params).T.copy()


def prune_operators(params: ModelParams) -> tuple:
    """Kraus operators whose squared moduli column-wise sum to prune_matrix.

    For any diagonal likelihood operator L, the diagonal of sum_k A_k L A_k^+
    equals prune_matrix(params) @ diag(L); this is the per-edge propagator of
    the quantum pruning circuit. The flip families give the operators of
    their channels; F adds sqrt(a) 1 to the scaled instruments.
    """
    if params.family != "F":
        return _flip_kraus(_flip_vector(params))
    ops = []
    if params.a > 0.0:
        ops.append(math.sqrt(params.a) * linalg.identity(4))
    if params.a < 1.0:
        scale = math.sqrt(1.0 - params.a)
        ops.extend(scale * f for f in felsenstein_instruments(params.pi))
    return tuple(ops)
