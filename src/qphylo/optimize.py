"""Maximum-likelihood estimation of model weights on a fixed topology.

The search is a plain Nelder-Mead simplex over the family's free weights,
shared across all edges of the tree or one block per edge. Candidate
points that leave the family's feasible region (a box, plus a weight-sum
constraint for the 4-state group families) are reflected back inside
before evaluation, so the objective only ever sees valid substitution
matrices. The search itself is deterministic; the seed is carried through
to the report for provenance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .engine import alignment_loglik
from .errors import ModelError, OptimizerError, ZeroLikelihoodError
from .models import FAMILY, ModelParams
from .treeio import Alignment, PhyloTree

DIAMETER_TOL = 1e-7
MAX_EVALS = 2000
_SPREAD = 0.05
_START = 0.1


def _region(name: str):
    """The search region (upper, drives) of a family's weights x: 0 <= x <= upper
    and, for a flip family, a nonnegative identity weight 1 - drives @ x,
    drives[i] counting the flips that weight i drives. A single weight takes
    that bound as its box, and drives is None."""
    family = FAMILY.get(name)
    if family is None:
        raise ModelError(f"unknown model family {name!r}")
    if family.flips is None:
        return np.ones(len(family.weights)), None
    drives = np.bincount(family.flips).astype(float)
    if drives.size == 1:
        return 1.0 / drives, None
    return np.ones(drives.size), drives


@dataclass(frozen=True)
class OptimizationProblem:
    """Tree topology, data, and search configuration for one ML fit.

    By default all edges share one parameter vector of the chosen family
    (the template tree's own edge parameters are placeholders for the
    topology); ``per_edge`` gives every edge its own vector instead. For the
    F family the stationary distribution is fixed, taken from the tree root
    (uniform when absent); only the weight a is searched.
    """

    tree: PhyloTree
    alignment: Alignment
    family: str
    engine: str = "classical"
    seed: int = 0
    per_edge: bool = False


@dataclass(frozen=True)
class TracePoint:
    n_eval: int
    params: tuple
    loglik: float


@dataclass(frozen=True)
class OptimizationResult:
    family: str
    engine: str
    seed: int
    names: tuple
    w_star: tuple
    loglik: float
    n_eval: int
    converged: bool
    trace: tuple

    def to_document(self) -> dict:
        return {
            "family": self.family,
            "engine": self.engine,
            "seed": self.seed,
            "w_star": dict(zip(self.names, self.w_star)),
            "fixed": {},  # no weight is held fixed; kept so the report keys stay stable
            "log_likelihood": self.loglik,
            "n_eval": self.n_eval,
            "converged": self.converged,
            "trace": [
                {"n_eval": t.n_eval, "params": list(t.params), "loglik": t.loglik}
                for t in self.trace
            ],
        }


def tree_with_edge_params(tree: PhyloTree, params_by_edge, root_pi=None) -> PhyloTree:
    """Copy of the topology with edges parameterized in pre-order.

    Edge i (from 0) is the one above pre-order position i + 1 of
    ``tree.nodes``: the root's left edge first, then the left subtree.
    """
    params = [None, *itertools.islice(params_by_edge, len(tree.nodes) - 1)]
    done = {}
    for s in reversed(range(len(tree.nodes))):
        edge = {"params": params[s], "annotated": True} if s else {}
        done[s] = replace(tree.nodes[s], children=tuple(done.pop(k) for k in tree.kids[s]), **edge)
    return PhyloTree(root=done[0], root_pi=root_pi)


def tree_with_shared_params(tree: PhyloTree, params: ModelParams, root_pi=None) -> PhyloTree:
    """Copy of the topology with every edge carrying the same parameters."""
    return tree_with_edge_params(tree, itertools.repeat(params), root_pi=root_pi)


def _mirror(x: np.ndarray, upper: np.ndarray) -> np.ndarray:
    period = 2.0 * upper
    y = np.mod(x, period)
    return np.minimum(y, period - y)


def reflect_feasible(x: np.ndarray, upper: np.ndarray, drives: np.ndarray | None) -> np.ndarray:
    """Mirror every row of ``x``, whose last axis is one edge block, across
    the violated bounds into the region ``_region`` gives."""
    x = _mirror(np.asarray(x, dtype=float), upper)
    if drives is not None:
        over = x @ drives > 1.0
        if over.any():
            y = x[over]
            excess = y @ drives - 1.0
            y = _mirror(y - (2.0 * excess / (drives @ drives))[:, None] * drives, upper)
            total = y @ drives
            # Pathological double violation: pull straight to the facet.
            pull = total > 1.0
            y[pull] *= (1.0 / total[pull])[:, None]
            x[over] = y
    return np.clip(x, 0.0, upper)


def maximize_loglik(problem: OptimizationProblem) -> OptimizationResult:
    """Nelder-Mead search for the family weights maximizing the log-likelihood.

    Stops when the simplex diameter drops below 1e-7 or after 2000
    evaluations; the trace records the best point after each iteration and is
    monotone in the objective. Raises OptimizerError when every vertex of
    the initial simplex has zero likelihood.
    """
    upper, drives = _region(problem.family)
    family = FAMILY[problem.family]
    n_states = family.n_states
    if n_states != problem.alignment.alphabet.n_states:
        raise ModelError(f"family {problem.family} has {n_states} states but the "
                         f"alignment alphabet has {problem.alignment.alphabet.n_states}")
    root_pi = problem.tree.root_pi
    pi = None
    if family.takes_pi:
        uniform = root_pi is None or root_pi.size != n_states
        pi = np.full(n_states, 1.0 / n_states) if uniform else root_pi
    block_dim = len(family.weights)
    n_blocks = len(problem.tree.nodes) - 1 if problem.per_edge else 1
    dim = n_blocks * block_dim

    def reflect(x: np.ndarray) -> np.ndarray:
        """Points (..., dim) reflected block by block into the region."""
        blocks = x.reshape(*x.shape[:-1], n_blocks, block_dim)
        return reflect_feasible(blocks, upper, drives).reshape(x.shape)

    n_eval = 0

    def objective(x: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        edges = [ModelParams(problem.family, *block, pi=pi) for block in x.reshape(n_blocks, block_dim)]
        tree = tree_with_edge_params(problem.tree, itertools.cycle(edges), root_pi=root_pi)
        try:
            report = alignment_loglik(tree, problem.alignment, engine=problem.engine)
        except ZeroLikelihoodError:
            return np.inf
        return -report.total_log_likelihood

    # Vertex 0 is the start point; vertex i + 1 steps weight i by _SPREAD.
    vertices = reflect(np.full(dim, _START) + np.vstack([np.zeros(dim), _SPREAD * np.eye(dim)]))
    values = np.array([objective(v) for v in vertices])
    if not np.isfinite(values).any():
        raise OptimizerError("zero likelihood across the entire initial simplex")

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    trace = []

    def record():
        best = int(np.argmin(values))
        trace.append(TracePoint(n_eval=n_eval, params=tuple(float(v) for v in vertices[best]),
                                loglik=-float(values[best])))

    record()
    converged = False
    while n_eval < MAX_EVALS:
        order = np.argsort(values, kind="stable")
        vertices, values = vertices[order], values[order]
        if np.abs(vertices[1:] - vertices[0]).max() < DIAMETER_TOL:
            converged = True
            break
        centroid = vertices[:-1].mean(axis=0)
        reflected = reflect(centroid + alpha * (centroid - vertices[-1]))
        f_reflected = objective(reflected)
        if f_reflected < values[0]:
            expanded = reflect(centroid + gamma * (reflected - centroid))
            f_expanded = objective(expanded)
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
        else:
            contracted = reflect(centroid + rho * (vertices[-1] - centroid))
            f_contracted = objective(contracted)
            if f_contracted < values[-1]:
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                vertices[1:] = reflect(vertices[0] + sigma * (vertices[1:] - vertices[0]))
                values[1:] = [objective(v) for v in vertices[1:]]
        record()

    best = int(np.argmin(values))
    if problem.per_edge:
        names = tuple(f"edge{b + 1}.{name}" for b in range(n_blocks) for name in family.weights)
    else:
        names = family.weights
    return OptimizationResult(
        family=problem.family,
        engine=problem.engine,
        seed=problem.seed,
        names=names,
        w_star=tuple(float(v) for v in vertices[best]),
        loglik=-float(values[best]),
        n_eval=n_eval,
        converged=converged,
        trace=tuple(trace),
    )
