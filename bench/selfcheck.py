#!/usr/bin/env python3
"""Self-check of the benchmark's own gates.

    python3 bench/selfcheck.py [--seed 31000]

For each workload, runs ``run.py`` once with every perturbation that applies
to it: the value a gate sees is offset past its tolerance (an engine total
by 1e-6, a site probability by 1e-9, an estimate by 1e-3, an output digest
or an exact count changed). Each named gate must fail, the failures must
count as failed operations, and the run must exit 1 with ``correct`` false.
Then, in a copy of the checkout, stored exact counts must trip
``counts_repeat`` for the same code and not after a source change. Last,
the benchmark must refuse to run, with no result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files. Takes about three
minutes; prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

EXPECTED = {
    "recovery": ("engines_agree", "simulate_matches_reference", "estimates_agree",
                 "per_edge_not_worse"),
    "wide": ("engines_agree", "counts_repeat"),
    "pipeline": ("engines_agree", "site_likelihood_is_pattern_probability",
                 "outputs_repeat_bytewise", "counts_repeat"),
}


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_perturbed(workload: str, seed: int) -> list:
    proc = run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "0", "--perturb", "all"], ROOT)
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    if len(lines) < 2:
        return [(f"{workload}: run produced a result", False, proc.stderr[-500:])]
    info, final = lines[0], lines[-1]
    problems = [
        (f"{workload}: exit code 1", proc.returncode == 1, proc.returncode),
        (f"{workload}: correct is false", final["correct"] is False, final["correct"]),
        (f"{workload}: failures counted", final["failed"] >= 1, final["failed"]),
    ]
    for gate in EXPECTED[workload]:
        failed = info["gates"].get(gate, {}).get("failed", 0)
        problems.append((f"{workload}: gate {gate} trips", failed >= 1, failed))
    return problems


def _checkout_copy(name: str, with_src: bool) -> Path:
    """A fresh copy of the files the benchmark needs, under .bench_out/."""
    copy = ROOT / ".bench_out" / name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, copy / BENCH.name, ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
    return copy


def check_count_store(seed: int) -> list:
    """Stored exact counts bind runs of the same code only.

    In a copy of the checkout: a first run stores its counts; every stored
    count is then changed. A second run of the same code must trip
    counts_repeat; a third, after a program source changed, must not.
    """
    copy = _checkout_copy("store-check", with_src=True)
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "wide", "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]

    def counts_failed(proc):
        lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
        return lines[0]["gates"].get("counts_repeat", {}).get("failed", 0) if lines else None

    try:
        first = run(cmd, copy)
        stores = list((copy / ".bench_out" / "counts").glob("wide-*.json"))
        for path in stores:
            stored = json.loads(path.read_text())
            for counts in stored.values():
                counts["unique_patterns"] += 1
            path.write_text(json.dumps(stored))
        same = run(cmd, copy)
        with open(copy / "src" / "qphylo" / "__init__.py", "a", encoding="utf-8") as f:
            f.write("\n# a source change\n")
        changed = run(cmd, copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return [("count store: first run passes", first.returncode == 0, first.returncode),
            ("count store: one store per workload and source", len(stores) == 1, len(stores)),
            ("count store: same code, changed store trips",
             same.returncode == 1 and (counts_failed(same) or 0) >= 1, counts_failed(same)),
            ("count store: changed code does not trip",
             changed.returncode == 0 and counts_failed(changed) == 0, counts_failed(changed))]


def check_bare_directory() -> list:
    bare = _checkout_copy("bare", with_src=False)
    try:
        proc = run([sys.executable, f"{BENCH.name}/run.py", "--workload", "wide", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed = any(x.startswith("{") for x in proc.stdout.splitlines())
    return [("bare directory: non-zero exit", proc.returncode != 0, proc.returncode),
            ("bare directory: no result printed", not printed, proc.stdout[-200:])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=31000)
    args = parser.parse_args()
    checks = ([c for w in EXPECTED for c in check_perturbed(w, args.seed)]
              + check_count_store(args.seed) + check_bare_directory())
    for name, ok, seen in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({seen})")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
