"""Per-layer spans taken from outside the program.

The tracer wraps the public functions each qphylo layer calls, by rebinding
the module attributes that callers look them up through (for example
``qphylo.optimize.alignment_loglik`` or ``qphylo.engine.prune_operators``).
No file of the program changes. Wrappers are installed only while a traced
cycle runs and removed afterwards, so untraced cycles run the program as is.

A span is (id, name, label, start, end, parent id, run id, info). Spans stay
in memory and are written out when the run ends. A span's self time is its
duration minus the durations of its direct children; calls in this program
are single-threaded and nest, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

from qphylo import channels, cli, engine, models, optimize, treeio, verify
from workloads import ENGINES

COMMANDS = ("simulate", "likelihood", "optimize", "verify")
SUITES = ("fourier_equivalence", "dilation_vs_channel", "flip_generators",
          "dilation_unitarity", "coin_weights", "pruning_equivalence")

ID, NAME, LABEL, START, END, PARENT, RUN, INFO = range(8)


def _loglik_label(args, kwargs):
    tree = args[0] if args else kwargs["tree"]
    engine_name = kwargs.get("engine", args[2] if len(args) > 2 else "classical")
    return engine_name, tree.n_leaves - 1


def _patterns_info(out):
    patterns, counts, _ = out
    return len(patterns), int(counts.sum())


def _simulate_info(out):
    return out.values.size * out.values.itemsize


# (span name, owner, attribute, label(args, kwargs) or None, info(result) or None)
TARGETS = (
    ("treeio.parse_newick", treeio, "parse_newick", None, None),
    ("treeio.parse_fasta", treeio, "parse_fasta", None, None),
    ("treeio.emit_newick", treeio, "emit_newick", None, None),
    ("treeio.compile_circuit", treeio, "compile_circuit", None, None),
    ("treeio.site_patterns", treeio.Alignment, "site_patterns", None, _patterns_info),
    ("models.prune_matrix", models, "prune_matrix", None, None),
    ("models.prune_operators", models, "prune_operators", None, None),
    ("engine.alignment_loglik", engine, "alignment_loglik", _loglik_label, None),
    ("engine.simulate_tree", engine, "simulate_tree", None, _simulate_info),
    ("channels.split_at", channels, "split_at", None, None),
    ("optimize.maximize_loglik", optimize, "maximize_loglik", None, None),
    ("optimize.retree", optimize, "tree_with_shared_params", None, None),
    ("optimize.retree", optimize, "tree_with_edge_params", None, None),
) + tuple((f"cli.{c}", cli, f"cmd_{c}", None, None) for c in COMMANDS) \
  + tuple((f"verify.{s}", verify, f"suite_{s}", None, None) for s in SUITES)

_MODULES = (channels, cli, engine, models, optimize, treeio, verify)


class Tracer:
    """Span recorder; ``recording(run)`` installs the wrappers for one cycle."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = self._find_bindings()

    @staticmethod
    def _find_bindings():
        """Every (owner, attribute, original, name, label, info) to rebind.

        A function imported by name into another module is a separate
        binding there, so each module that holds the same object is patched.
        """
        import qphylo
        bindings = []
        for name, owner, attr, label, info in TARGETS:
            original = getattr(owner, attr)
            owners = [owner] if isinstance(owner, type) else \
                [m for m in _MODULES + (qphylo,) if getattr(m, attr, None) is original]
            bindings.extend((o, attr, original, name, label, info) for o in owners)
        return bindings

    def _wrap(self, fn, name, label, info, run):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), name, label(args, kwargs) if label else None, 0.0, 0.0,
                    stack[-1][ID] if stack else None, run, None]
            spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info:
                span[INFO] = info(out)
            return out

        return traced

    def span_cost_s(self, calls: int = 20000, batches: int = 5) -> float:
        """Bookkeeping time one wrapper adds to a call, measured on a no-op.

        Median over ``batches`` of (wrapped minus bare time) / ``calls``.
        """
        def noop():
            return None

        saved, self.spans = self.spans, []
        wrapped = self._wrap(noop, "calibrate", None, None, -1)
        costs = []
        try:
            for _ in range(batches):
                start = time.perf_counter()
                for _ in range(calls):
                    noop()
                bare = time.perf_counter() - start
                self.spans.clear()
                start = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                costs.append((time.perf_counter() - start - bare) / calls)
        finally:
            self.spans = saved
        return statistics.median(costs)

    @contextlib.contextmanager
    def recording(self, run):
        wrappers = {}
        for owner, attr, original, name, label, info in self._bindings:
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, name, label, info, run)
            setattr(owner, attr, wrappers[key])
        try:
            yield
        finally:
            for owner, attr, original, *_ in self._bindings:
                setattr(owner, attr, original)


def _ancestor(span, by_id, name):
    parent = span[PARENT]
    while parent is not None:
        up = by_id[parent]
        if up[NAME] == name:
            return up
        parent = up[PARENT]
    return None


def cycle_layers(spans) -> tuple:
    """(times in ms, exact counts) summed over one cycle's spans."""
    by_id = {s[ID]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    total = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        key = f"engine.{s[LABEL][0]}" if s[NAME] == "engine.alignment_loglik" else s[NAME]
        dur = s[END] - s[START]
        total[key] += dur
        self_t[key] += dur - child_time[s[ID]]
        calls[key] += 1

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def parent_name(s):
        return by_id[s[PARENT]][NAME] if s[PARENT] is not None else None

    times, counts = {}, {}
    for name in ("treeio.parse_newick", "treeio.parse_fasta", "treeio.site_patterns",
                 "treeio.emit_newick", "treeio.compile_circuit", "models.prune_matrix",
                 "models.prune_operators", "engine.simulate_tree", "optimize.retree"):
        times[f"{name}_ms"] = 1e3 * total[name]
        counts[f"{name}.calls"] = calls[name]
    # Kraus stacks are read only by the quantum and dual engines.
    engines = [_ancestor(s, by_id, "engine.alignment_loglik")
               for s in named("models.prune_operators")]
    counts["models.prune_operators.useful"] = sum(
        1 for caller in engines if caller and caller[LABEL][0] != "classical")

    reductions = defaultdict(int)
    for s in named("treeio.site_patterns"):
        if parent_name(s) == "engine.alignment_loglik":
            engine_name, internal = by_id[s[PARENT]][LABEL]
            reductions[engine_name] += s[INFO][0] * internal
    for e in ENGINES:
        times[f"engine.{e}.self_ms"] = 1e3 * self_t[f"engine.{e}"]
        counts[f"engine.{e}.calls"] = calls[f"engine.{e}"]
        counts[f"engine.{e}.node_reductions"] = reductions[e]
    counts["engine.tensor_bytes"] = max((s[INFO] for s in named("engine.simulate_tree")), default=0)
    counts["channels.split_at.calls"] = calls["channels.split_at"]

    evals = [s for s in named("engine.alignment_loglik")
             if parent_name(s) == "optimize.maximize_loglik"]
    counts["optimize.fits"] = calls["optimize.maximize_loglik"]
    counts["optimize.evaluations"] = len(evals)
    times["optimize.fit_ms"] = 1e3 * total["optimize.maximize_loglik"]
    times["optimize.evaluations_ms"] = 1e3 * sum(s[END] - s[START] for s in evals)
    times["optimize.self_ms"] = 1e3 * self_t["optimize.maximize_loglik"]

    for c in COMMANDS:
        times[f"cli.{c}.self_ms"] = 1e3 * self_t[f"cli.{c}"]
        counts[f"cli.{c}.calls"] = calls[f"cli.{c}"]
    for suite in SUITES:
        times[f"verify.{suite}_ms"] = 1e3 * total[f"verify.{suite}"]
    counts["verify.loglik.calls"] = sum(
        1 for s in named("engine.alignment_loglik")
        if any(_ancestor(s, by_id, f"verify.{suite}") for suite in SUITES))
    counts["spans"] = len(spans)
    return times, counts

