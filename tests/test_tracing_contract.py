"""The benchmark's tracer rebinds program functions by module attribute name.

A renamed or moved function breaks ``bench/run.py --trace 1`` with an
AttributeError; these tests catch that without running the benchmark.
"""

from pathlib import Path

import numpy as np

from qphylo import engine, models
from qphylo.treeio import emit_newick, parse_newick
from qphylo.verify import random_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_traced_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracing.Tracer()  # looks up every traced attribute


def test_engine_calls_edge_builders_through_module_names():
    # The tracer counts per-edge builds by patching these names in every
    # module that binds them; the engine must look them up there.
    for name in ("prune_operators", "prune_matrix"):
        assert getattr(engine, name) is getattr(models, name)


def test_warm_cache_builds_nothing_under_the_tracer(monkeypatch):
    # The tracer rebinds prune_matrix and prune_operators while it records, so
    # a cache keyed by those functions would build every edge again on a warm tree.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tree, aln = random_instance(np.random.default_rng(3), 6, "F", n_sites=4)
    for name in engine.ENGINES:
        engine.alignment_loglik(tree, aln, engine=name)
    tracer = tracing.Tracer()
    with tracer.recording(0):
        again = parse_newick(emit_newick(tree))
        for name in engine.ENGINES:
            engine.alignment_loglik(again, aln, engine=name)
    _, counts = tracing.cycle_layers(tracer.spans)
    assert counts["engine.classical.calls"] == counts["engine.dual.calls"] == 1
    assert counts["models.prune_matrix.calls"] == 0
    assert counts["models.prune_operators.calls"] == 0
