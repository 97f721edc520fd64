"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1
and ``src`` on the path. ``--setup-only`` stops after set-up (imports, input
generation and the warm-up call) so that ``run.py`` can time set-up from
outside. Otherwise the workload's cycles run back to back (a closed loop,
one caller) until ``--seconds`` are used; with ``--trace 1`` each cycle runs
twice, untraced and then traced, and the tracing overhead is both estimated
from the wrappers' calibrated cost and measured as the difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 2  # untraced runs; a traced run needs one untraced+traced pair
# Time of one reference-kernel run on an uncontended core of the 2-core
# machine the benchmark was defined on. Corrected times are expressed at it.
REFERENCE_KERNEL_MS = 5.0


class ReferenceKernel:
    """A frozen, pruning-shaped computation that measures the machine's speed now.

    On a machine whose cores are shared, other processes can slow every
    call by up to ~1.8x for tens of seconds at a time, so raw medians of two
    runs can differ by more than any useful bound. The kernel mixes
    the same kinds of work as the engines (small real matrix-vector products
    in Python, 5x5 complex Kraus sums, a 25x25 kron, pinch and partial
    trace) and never changes, so a call's time divided by the kernel's time
    around it cancels most of the machine's slowdown and none of the
    program's.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.random((4, 4))
        self.kraus = rng.random((4, 5, 5)) + 1j * rng.random((4, 5, 5))
        self.kraus_dag = self.kraus.conj().transpose(0, 2, 1).copy()
        self.pinch = rng.random((5, 25, 25)) + 0j
        self.pinch_dag = self.pinch.conj().transpose(0, 2, 1).copy()

    def __call__(self) -> float:
        """Run the kernel once and return its time in milliseconds."""
        start = time.perf_counter()
        v = np.ones(4)
        for _ in range(50):
            v = (self.m @ v) * (self.m.T @ v)
            d = np.concatenate([[0.0], v / v.sum()])
            rho = ((self.kraus * d) @ self.kraus_dag).sum(axis=0)
            joint = (self.pinch @ np.kron(rho, rho) @ self.pinch_dag).sum(axis=0)
            v = np.diag(np.trace(joint.reshape(5, 5, 5, 5), axis1=1, axis2=3)).real[1:]
            v = v / v.sum()
        return 1e3 * (time.perf_counter() - start)

    def median_ms(self, runs: int = 3) -> float:
        return statistics.median(self() for _ in range(runs))


class CycleAborted(Exception):
    """A program call failed, so the rest of its cycle cannot run."""


class Ledger:
    """Every timed program call and correctness gate of one run."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.ops = []
        self.gates = {}
        self.cycle = "setup"
        self.last = None
        self._kernel_after = None  # kernel time measured right after the last measured call

    def call(self, kind, fn, *args, **kwargs):
        """Time one program call; an exception fails it and ends the cycle."""
        self._kernel_after = None
        op = {"kind": kind, "cycle": self.cycle, "seconds": None, "ok": True}
        self.ops.append(op)
        self.last = op
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any program failure ends this cycle, not the run
            op.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            raise CycleAborted(kind) from exc
        op["seconds"] = time.perf_counter() - start
        return out

    def measure(self, kind, fn, *args, **kwargs):
        """A call whose time feeds an end-to-end metric: the kernel runs around it.

        Back-to-back measured calls share the kernel run between them.
        """
        before = self._kernel_after or self.kernel.median_ms()
        out = self.call(kind, fn, *args, **kwargs)
        self._kernel_after = self.kernel.median_ms()
        self.last["kernel_ms"] = 0.5 * (before + self._kernel_after)
        return out

    def cli(self, kind, main, argv) -> str:
        """Run ``main(argv)`` with its output captured; a non-zero exit fails."""
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(argv)

        code = self.call(kind, run)
        if code != 0:
            self.last.update(ok=False, error=f"exit {code}: {err.getvalue().strip()}")
            raise CycleAborted(kind)
        return out.getvalue()

    def gate(self, name, ok, *ops) -> None:
        checked, failed = self.gates.get(name, (0, 0))
        self.gates[name] = (checked + 1, failed + (not ok))
        if not ok:
            for op in ops:
                op["ok"] = False
                op.setdefault("error", f"gate {name} failed")

    def cycle_seconds(self, cycles) -> list:
        return [sum(op["seconds"] for op in self.ops if op["cycle"] == c) for c in cycles]

    def samples(self) -> dict:
        """[seconds, kernel ms or None] of every completed call after set-up, by kind."""
        out = {}
        for op in self.ops:
            if op["cycle"] != "setup" and op["seconds"] is not None:
                out.setdefault(op["kind"], []).append([op["seconds"], op.get("kernel_ms")])
        return out

    def median_ms(self, kind, corrected=False):
        """Median call time; ``corrected`` scales each call to the reference speed."""
        times = [1e3 * op["seconds"] * (REFERENCE_KERNEL_MS / op["kernel_ms"] if corrected else 1)
                 for op in self.ops
                 if op["kind"] == kind and op["cycle"] != "setup" and op["seconds"] is not None
                 and (not corrected or "kernel_ms" in op)]
        return statistics.median(times) if times else None


def source_hash() -> str:
    """Digest of the program's and the benchmark's Python sources.

    Exact counts are compared only between runs of the same code: a change
    to either is free to move them.
    """
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "qphylo", ROOT / "bench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_counts(ledger, workload, records, persist: bool) -> None:
    """Exact counts must repeat for the same input and code, in this run and earlier ones."""
    path = ROOT / ".bench_out" / "counts" / f"{workload}-{source_hash()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for rec in records:
        key = f"{rec['mode']}:{rec['input']}"
        counts = {k: v for k, v in rec.items() if k not in ("mode", "cycle")}
        if key in stored:
            ok = stored[key] == counts
            ledger.gate("counts_repeat", ok, *[op for op in ledger.ops
                                               if op["cycle"] == rec["cycle"]][:1])
        else:
            stored[key] = counts
    if persist:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        tmp.replace(path)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb", default="", help="comma-separated gate perturbations")
    parser.add_argument("--out", help="write the result JSON here (required unless --setup-only)")
    args = parser.parse_args()
    if not args.setup_only and not args.out:
        parser.error("--out is required unless --setup-only")

    import qphylo
    if not Path(qphylo.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qphylo imported from {qphylo.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, cycle_layers

    perturb = frozenset(p for p in args.perturb.split(",") if p)
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, perturb, workdir)
        ledger = Ledger()
        try:
            wl.warm_up(ledger)
        except CycleAborted:
            pass  # recorded as a failed call; the cycles will fail the same way
        if args.setup_only:
            kernel_ms = ledger.kernel.median_ms()
            # A failed warm-up is reported by the measured run, which repeats it.
            print(json.dumps({"kernel_ms": kernel_ms, "scale": REFERENCE_KERNEL_MS / kernel_ms}))
            return 0
        result = run_cycles(wl, ledger, args, Tracer() if args.trace else None, cycle_layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_counts(ledger, args.workload, result.pop("records"), persist=not perturb)
    failed = sum(not op["ok"] for op in ledger.ops)
    result.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        attempted=len(ledger.ops), failed=failed,
        correct=failed == 0 and all(f == 0 for _, f in ledger.gates.values()),
        gates={k: {"checked": c, "failed": f} for k, (c, f) in ledger.gates.items()},
        errors=[op["error"] for op in ledger.ops if not op["ok"]][:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    Path(args.out).write_text(json.dumps(result, sort_keys=True))
    return 0


def run_cycles(wl, ledger, args, tracer, cycle_layers) -> dict:
    """Closed loop over cycles until the time budget is used."""
    start = time.perf_counter()
    modes = ("untraced", "traced") if tracer else ("untraced",)
    done = {mode: {} for mode in modes}  # cycle index -> (record, layer times and counts)
    index = 0
    while True:
        began = time.perf_counter()
        for mode in modes:
            ledger.cycle = f"{mode}-{index}"
            first = len(tracer.spans) if tracer else 0
            try:
                with tracer.recording(index) if mode == "traced" else contextlib.nullcontext():
                    rec = wl.cycle(ledger, index)
            except CycleAborted:
                continue
            except (KeyError, ValueError, OSError) as exc:  # the program's outputs were unreadable
                ledger.gate("outputs_readable", False, ledger.last)
                ledger.last["error"] = f"{type(exc).__name__}: {exc}"
                continue
            rec = dict(rec, mode=mode, cycle=ledger.cycle)
            if mode == "traced":
                layers = cycle_layers(tracer.spans[first:])
                rec["calls"] = layers[1]
                done[mode][index] = (rec, layers)
            else:
                done[mode][index] = (rec, None)
        index += 1
        # Start another cycle only if it should finish inside the budget.
        if (index >= (1 if tracer else MIN_CYCLES)
                and time.perf_counter() - start + time.perf_counter() - began > args.seconds):
            break

    kinds = sorted({op["kind"] for op in ledger.ops})
    primary = done[modes[-1]]
    untraced = [f"untraced-{i}" for i in done["untraced"]]
    result = {
        "cycles": index,
        "measured_s": time.perf_counter() - start,
        "records": [rec for mode in modes for rec, _ in done[mode].values()],
        "first_record": next(iter(primary.values()))[0] if primary else None,
        "cycle_s": statistics.median(ledger.cycle_seconds(untraced)) if untraced else None,
        "op_ms": {k: ledger.median_ms(k) for k in kinds},
        "corrected_ms": {k: ledger.median_ms(k, corrected=True) for k in kinds},
        "op_samples_s": ledger.samples(),
    }
    if tracer and primary:
        layers = [layer for _, layer in primary.values()]
        result["layers"] = {k: statistics.median(t[k] for t, _ in layers) for k in layers[0][0]}
        result["counts"] = layers[0][1]
        result["traced_records"] = [rec for rec, _ in primary.values()]
        both = [i for i in primary if i in done["untraced"]]
        pairs = list(zip(ledger.cycle_seconds(f"untraced-{i}" for i in both),
                         ledger.cycle_seconds(f"traced-{i}" for i in both)))
        # Traced minus untraced time of the same cycle: one noisy difference per pair.
        result["measured_overhead_ms"] = [1e3 * (t - u) for u, t in pairs]
        # The wrappers' own cost: spans per cycle times the calibrated cost of one span.
        result["span_cost_us"] = 1e6 * tracer.span_cost_s()
        result["overhead_ms"] = 1e-3 * result["span_cost_us"] * result["counts"]["spans"]
        if result["cycle_s"]:
            result["overhead_frac"] = result["overhead_ms"] / (1e3 * result["cycle_s"])
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "label", "start", "end", "parent", "run", "info"],
             "spans": tracer.spans}))
    return result


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
