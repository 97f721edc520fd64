"""Maximum-likelihood estimation of model weights on a fixed topology.

Each edge's Kraus family is an instrument, and each family weight drives
some of its outcomes. The fit is EM over those outcomes (Dempster, Laird &
Rubin 1977), shared by all edges or one block per edge, accelerated by
SQUAREM (Varadhan & Roland 2008). The chosen engine runs the E-step: an
edge's operator is linear in its weights, so the reduction with one edge's
operator replaced by the part one weight drives gives each pattern's joint
probability with that outcome. The closed-form M-step stays in the region.
Each point the fit evaluates is a (B, d) array of weight rows, one per
block, that the engine's one builder turns into entries off the edge cache,
so the points do not evict the caller's cached trees; the outcomes are the
same builder's unit rows. The reported log-likelihood is the one the search
computed at the kept point, so a fit makes no cache lookup and runs no
``alignment_loglik``.
The seed is only recorded in the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .engine import _KIND, _check_inputs, _entries, _pattern_logs, _pattern_values
from .errors import ModelError
from .models import FAMILY, ModelParams
from .treeio import Alignment, PhyloTree

MAX_EVALS = 2000  # EM steps from one start point
STEP_TOL = 1e-9  # converged when no weight moves more than this in a SQUAREM iteration
GAIN_TOL = 1e-12  # and the log-likelihood gains at most this, relative
_START = 0.1


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


def maximize_loglik(problem: OptimizationProblem) -> OptimizationResult:
    """EM for the family weights maximizing the log-likelihood, accelerated by SQUAREM.

    Per-edge block b of B starts at 0.1 (1 + b / 2B): EM keeps equal root
    edges equal, as they act only through their product. A shared fit also
    runs from the far corner, where what the weights leave over (the
    identity, or F's 1 - a) is 0.1 and the driven operators share the rest
    equally, and keeps that end and its trace if it is higher by more than
    GAIN_TOL: the likelihood can have a mode on each side of full
    randomisation, and EM's monotone path does not cross the dip between them.

    A SQUAREM iteration from x0 takes EM steps x1 and x2 and jumps to
    x0 - 2 alpha r + alpha^2 v (r = x1 - x0, v = x2 - 2 x1 + x0), with
    alpha = min(-|r| / |v|, -1) but at least -cap, halved toward -1 (x2)
    until the jump is strictly inside the region, where every pattern has
    positive likelihood. A jump below x2's log-likelihood gives way to x2, so
    the trace (each iteration's start, then the final point) is monotone. As
    in Varadhan & Roland's code, the cap starts at 1, grows 4x when a jump at
    it holds and shrinks 4x when one fails. ``n_eval`` counts EM steps, at
    most MAX_EVALS per start; each runs 1 + E d engine passes (E edges, d
    weights), so fits slow down as trees widen. A pass at point x builds its
    entries off the engine's cache, one per row of the (B, d) array x
    (B = 1 for a shared fit), in one batch. The result's log-likelihood is
    the kept point's, summed as ``alignment_loglik`` sums it; no pass runs
    after the search.
    """
    family = FAMILY.get(problem.family)
    if family is None:
        raise ModelError(f"unknown model family {problem.family!r}")
    aln, engine = problem.alignment, problem.engine
    root_pi, n, d = problem.tree.root_pi, family.n_states, len(family.weights)
    pi = root_pi if root_pi is not None and root_pi.size == n else np.full(n, 1.0 / n)
    n_edges = len(problem.tree.nodes) - 1
    n_blocks = n_edges if problem.per_edge else 1
    block_of = np.arange(n_edges) if problem.per_edge else np.zeros(n_edges, dtype=int)
    # Weight i drives drives[i] outcomes: the flips family.flips ties to it, or F's identity.
    drives = np.bincount(family.flips or (0,)).astype(float)

    spread = _START * (1.0 + 0.5 * np.arange(n_blocks) / n_blocks)
    starts = [np.repeat(spread[:, None], d, axis=1)]
    if not problem.per_edge:
        starts.append(np.full((1, d), (1.0 - _START) / drives.sum()))
    start = ModelParams(problem.family, *starts[0][0], pi=pi if family.takes_pi else None)
    tree = tree_with_edge_params(problem.tree, itertools.repeat(start), root_pi=root_pi)
    _check_inputs(tree, aln, engine)

    # An outcome's entries are its unit row's; the E-step scales them by the outcome's weight.
    kind, right, dual = _KIND[engine], tree.kids[0][1], engine == "dual"
    forms = _entries(problem.family, np.eye(d), pi, kind)[0]
    adjoint_forms = _entries(problem.family, np.eye(d), pi, "adjoint")[0] if dual else None
    _, counts, inverse = aln.site_patterns()
    # Outcome trials per block; an alignment without sites has none and keeps its weights.
    trials = aln.n_sites * np.bincount(block_of)[:, None] * drives
    n_eval = 0

    def evaluate(x: np.ndarray):
        """(log-likelihood at x, as alignment_loglik sums it; the pass that gave it)."""
        entries, block_floors = _entries(problem.family, x, pi, kind)
        edges, floors = [None, *entries[block_of]], [None, *(block_floors[b] for b in block_of)]
        adjoint = _entries(problem.family, x[[block_of[right - 1]]], pi, "adjoint")[0][0] if dual else None
        values, exponent, _ = _pattern_values(tree, aln, engine, edges, floors, adjoint)
        return float(_pattern_logs(values, exponent)[inverse].sum()), (values, exponent, edges, floors, adjoint)

    def em_image(x: np.ndarray, base) -> np.ndarray:
        """The EM image of x, given the pass ``evaluate(x)`` ran."""
        nonlocal n_eval
        n_eval += 1
        (values, exponent, edges, floors, adjoint), expected = base, np.zeros_like(x)
        for slot, block in enumerate(block_of, start=1):
            # The part one weight drives reads nothing negative at a node: floor 0.0.
            trial_floors = [*floors[:slot], 0.0, *floors[slot + 1:]]
            for i in np.flatnonzero(x[block]):
                weight = x[block, i]
                trial = [*edges[:slot], weight * forms[i], *edges[slot + 1:]]
                trial_adjoint = weight * adjoint_forms[i] if dual and slot == right else adjoint
                joint, joint_exponent, _ = _pattern_values(tree, aln, engine, trial, trial_floors, trial_adjoint)
                expected[block, i] += counts @ (np.ldexp(joint, joint_exponent - exponent) / values)
        return np.minimum(np.divide(expected, trials, out=x.copy(), where=trials > 0), 1.0)

    def climb(x: np.ndarray):
        """SQUAREM from x: (the final point, its log-likelihood, converged, trace)."""
        (level, base), first = evaluate(x), n_eval
        trace, converged, cap = [], False, 1.0
        while not converged and n_eval - first < MAX_EVALS:
            trace.append(TracePoint(n_eval=n_eval, params=tuple(x.ravel().tolist()), loglik=level))
            x1 = em_image(x, base)
            x2 = em_image(x1, evaluate(x1)[1])
            r, v = x1 - x, x2 - 2.0 * x1 + x
            norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
            alpha = max(-norm_r / norm_v if norm_r > norm_v > 0.0 else -1.0, -cap)
            capped = alpha == -cap
            jump = x - 2.0 * alpha * r + alpha**2 * v
            while alpha < -1.0 and not ((jump > 0.0).all() and (jump @ drives < 1.0).all()):
                alpha = (alpha - 1.0) / 2.0
                jump = x - 2.0 * alpha * r + alpha**2 * v
            new, (new_level, base), failed = x2, evaluate(x2), False
            if alpha < -1.0:
                jump_level, jump_base = evaluate(jump)
                failed = jump_level < new_level
                if not failed:
                    new, new_level, base = jump, jump_level, jump_base
            if capped:
                cap = max(1.0, cap / 4.0) if failed else 4.0 * cap
            converged = bool(np.abs(new - x).max() <= STEP_TOL
                             and new_level - level <= GAIN_TOL * abs(new_level))
            x, level = new, new_level
        return x, level, converged, trace

    (x, level, converged, trace), *far = [climb(start) for start in starts]
    # Equal modes (a likelihood even in the sign of an eigenvalue) end within rounding of
    # each other; the far start must win by more than that, so every engine keeps the first.
    if far and far[0][1] - level > GAIN_TOL * abs(level):
        x, level, converged, trace = far[0]
    w_star = tuple(x.ravel().tolist())
    trace.append(TracePoint(n_eval=n_eval, params=w_star, loglik=level))
    return OptimizationResult(
        family=problem.family,
        engine=engine,
        seed=problem.seed,
        names=tuple(f"edge{b + 1}.{name}" for b in range(n_blocks) for name in family.weights)
        if problem.per_edge else family.weights,
        w_star=w_star,
        loglik=level,
        n_eval=n_eval,
        converged=converged,
        trace=tuple(trace),
    )
