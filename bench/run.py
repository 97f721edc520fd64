#!/usr/bin/env python3
"""qphylo benchmark: one command, seeded workloads, correctness gates.

    python3 bench/run.py --workload recovery --seed 31000 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; the program is imported from
``src/``. Each workload runs in a fresh interpreter (``worker.py``) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1. With ``--trace 0`` the
end-to-end metrics are printed; set-up time is the median of five fresh
processes that import, generate inputs and make the warm-up call. With
``--trace 1`` the per-layer metrics come from spans recorded around the
program's public functions. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every correctness gate passed, 1 when one failed and 2 when the
benchmark could not run. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"  # scratch space inside the checkout; listed in .gitignore
WORKLOADS = ("recovery", "wide", "pipeline")
SETUP_SAMPLES = 5
ENGINES = ("classical", "quantum", "dual")
MIN_OVERHEAD_PAIRS = 3  # traced/untraced cycle pairs needed to show their difference


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def worker(args: list, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def setup_seconds(workload: str, seed: int) -> list:
    """(wall seconds, reference-kernel scale) of fresh processes that only set up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = worker(["--workload", workload, "--seed", str(seed), "--setup-only"], 120)
        wall = time.perf_counter() - start
        samples.append((wall, json.loads(proc.stdout.splitlines()[-1])["scale"]))
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: int, perturb: str) -> dict:
    setup = [] if trace else setup_seconds(workload, seed)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{workload}-{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    if perturb:
        args += ["--perturb", perturb]
    worker(args, seconds + 120)
    result = json.loads(out.read_text())
    result["setup_samples_s"] = setup
    return result


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict) -> dict:
    op = result["op_ms"]
    corrected = result["corrected_ms"]
    setup = result["setup_samples_s"]
    metrics = {"setup_s": metric(statistics.median(wall * scale for wall, scale in setup), "s")}
    for e in ENGINES:
        metrics[f"loglik_{e}_ms"] = metric(corrected.get(f"loglik.{e}"), "ms")
    metrics["peak_rss_mb"] = metric(result["peak_rss_mb"], "MiB")
    return metrics


# Timings that only one workload has; printed, not bounded (see README.md).
DETAIL = {
    "fit_shared_classical_s": "fit.shared_classical", "fit_shared_quantum_s": "fit.shared_quantum",
    "fit_per_edge_s": "fit.per_edge", "simulate_s": "cli.simulate",
    "likelihood_all_s": "cli.likelihood", "optimize_s": "cli.optimize", "verify_s": "cli.verify",
}


def details(result: dict) -> dict:
    op = {k: v for k, v in result["op_ms"].items() if v is not None}
    out = {"setup_raw_s": metric(statistics.median(w for w, _ in result["setup_samples_s"]), "s")}
    out.update({f"loglik_{e}_raw_ms": metric(op[f"loglik.{e}"], "ms")
                for e in ENGINES if f"loglik.{e}" in op})
    out.update({name: metric(op[kind] / 1e3, "s") for name, kind in DETAIL.items() if op.get(kind)})
    out["cycle_s"] = metric(result["cycle_s"], "s")
    out["fail_frac"] = metric(result["failed"] / max(result["attempted"], 1), "ratio")
    return out


def per_layer(result: dict) -> dict:
    layers, counts = result["layers"], result["counts"]
    first = result["first_record"]
    m = {}
    for name in ("parse_newick", "parse_fasta", "site_patterns", "emit_newick"):
        m[f"treeio.{name}_ms"] = metric(layers[f"treeio.{name}_ms"], "ms")
    for name in ("site_patterns", "emit_newick", "compile_circuit"):
        m[f"treeio.{name}.calls"] = metric(counts[f"treeio.{name}.calls"], "count")
    m["treeio.unique_patterns"] = metric(first["unique_patterns"], "count")
    m["treeio.compression"] = metric(
        first["sites"] / first["unique_patterns"], "ratio")
    m["models.prune_matrix.calls"] = metric(counts["models.prune_matrix.calls"], "count")
    m["models.prune_operators.calls"] = metric(counts["models.prune_operators.calls"], "count")
    m["models.prune_operators_ms"] = metric(layers["models.prune_operators_ms"], "ms")
    built = counts["models.prune_operators.calls"]
    m["models.prune_operators.useful_frac"] = metric(
        counts["models.prune_operators.useful"] / built if built else 0.0, "ratio")
    for e in ENGINES:
        self_ms = layers[f"engine.{e}.self_ms"]
        nodes = counts[f"engine.{e}.node_reductions"]
        m[f"engine.{e}.self_ms"] = metric(self_ms, "ms")
        m[f"engine.{e}.node_reductions"] = metric(nodes, "count")
        m[f"engine.{e}.ns_per_node_pattern"] = metric(1e6 * self_ms / nodes if nodes else 0.0, "ns")
    m["engine.simulate_tree.calls"] = metric(counts["engine.simulate_tree.calls"], "count")
    m["engine.tensor_mb"] = metric(counts["engine.tensor_bytes"] / 2**20, "MiB")
    m["channels.split_at.calls"] = metric(counts["channels.split_at.calls"], "count")
    m["optimize.n_eval"] = metric(sum(first.get("n_eval", {}).values()), "count")
    for c in ("simulate", "likelihood", "optimize", "verify"):
        size = first.get("output_bytes", {}).get(c, 0)
        m[f"cli.{c}.output_mb"] = metric(size / 2**20, "MiB")
    m["verify.loglik.calls"] = metric(counts["verify.loglik.calls"], "count")
    m["trace.overhead_ms"] = metric(result.get("overhead_ms"), "ms")
    m["trace.overhead_frac"] = metric(result.get("overhead_frac"), "ratio")
    return m


def detail_layers(result: dict) -> dict:
    """Per-layer times that only some workloads exercise; printed, not in BENCHMARK.json."""
    layers, counts = result["layers"], result["counts"]
    names = ["treeio.compile_circuit_ms", "engine.simulate_tree_ms", "optimize.retree_ms",
             "optimize.self_ms"] + [k for k in layers if k.startswith(("cli.", "verify."))]
    out = {k: metric(layers[k], "ms") for k in names if layers[k] > 0}
    out["trace.span_cost_us"] = metric(result["span_cost_us"], "us")
    out["trace.spans"] = metric(counts["spans"], "count")
    diffs = result["measured_overhead_ms"]
    out["trace.pairs"] = metric(len(diffs), "count")
    # A direct traced-minus-untraced figure is shown only when it is resolved.
    if len(diffs) >= MIN_OVERHEAD_PAIRS and (min(diffs) > 0 or max(diffs) < 0):
        out["trace.measured_overhead_ms"] = metric(statistics.median(diffs), "ms")
    if counts["optimize.evaluations"]:
        fit_ms, eval_ms = layers["optimize.fit_ms"], layers["optimize.evaluations_ms"]
        out["optimize.eval_ms"] = metric(eval_ms / counts["optimize.evaluations"], "ms")
        out["optimize.loglik_share"] = metric(eval_ms / fit_ms, "ratio")
        converged = [v for r in result["traced_records"] for v in r.get("converged", {}).values()]
        out["optimize.converged_frac"] = metric(sum(converged) / len(converged), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=31000)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "qphylo" / "__init__.py").is_file():
        print(f"no qphylo sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    revision = git_revision()
    for workload in chosen:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.perturb)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        if result["first_record"] is None:  # no cycle completed: nothing to measure
            metrics, extra = {}, {}
        else:
            metrics = per_layer(result) if args.trace else end_to_end(result)
            extra = detail_layers(result) if args.trace else details(result)
        missing = [k for k, m in metrics.items()
                   if m["value"] is None or not math.isfinite(m["value"])]
        if missing and result["correct"]:
            print(f"benchmark error: {workload} produced no value for {missing}", file=sys.stderr)
            return 2
        metrics = {k: m for k, m in metrics.items() if k not in missing}
        print(json.dumps({"workload": workload, "seed": args.seed, "revision": revision,
                          "environment": result["environment"], "cycles": result["cycles"],
                          "measured_s": result["measured_s"], "gates": result["gates"],
                          "errors": result["errors"]}, sort_keys=True))
        for name, m in {**metrics, **extra}.items():
            if m["value"] is not None:
                print(f"{workload:9s} {name:40s} {m['value']:>14.6g} {m['unit']}")
        final["correct"] &= result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
