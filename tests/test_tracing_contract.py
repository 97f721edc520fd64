"""The benchmark's tracer rebinds program functions by module attribute name.

A renamed or moved function breaks ``bench/run.py --trace 1`` with an
AttributeError; these tests catch that without running the benchmark.
"""

from pathlib import Path

from qphylo import engine, models

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
