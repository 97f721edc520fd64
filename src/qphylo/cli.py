"""Command-line interface: simulate, likelihood, optimize, verify.

Exit codes are stable API: 0 ok, 1 verify failure, 2 input parse error
(an unreadable input or an unwritable output included), 3 model error,
4 taxa mismatch, 5 zero site likelihood. Exit 6, once optimizer
degeneracy, is retired, since no fit can reach it; it will not be reused.
All outputs are deterministic for a fixed seed: no timestamps, no
environment-dependent content.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .engine import ENGINES, MAX_TENSOR_BYTES, alignment_loglik, simulate_tree
from .errors import ModelError, ParseError, QPhyloError, TaxaMismatchError, ZeroLikelihoodError
from .models import FAMILIES
from .optimize import OptimizationProblem, maximize_loglik
from .treeio import parse_fasta, parse_newick
from .verify import run_suites

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_TAXA = 4
EXIT_ZERO_LIKELIHOOD = 5

_CHUNK = 4096  # entries per patterns.json write; 65,536 took a 4**9-entry write's tracemalloc peak from 0.6 to 9.6 MiB

def _int_at_least(low: int):
    """argparse type for an integer that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _write_json(path: Path, doc: dict) -> None:
    with path.open("w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _json_layout(shape: tuple):
    """``(head, after, blocks)`` of ``json.dumps`` for a top-level list of ``shape``, on one line.

    ``head`` precedes the first entry. ``after[j]`` follows each entry that closes
    ``j`` inner axes: its 1-based flat index is a multiple of ``blocks[j]``, the
    size of the last ``j`` axes, but not of ``blocks[j + 1]``. ``after[-1]`` ends the list.
    """
    ndim = len(shape)
    after = ["]" * j + ", " + "[" * j for j in range(ndim)] + ["]" * ndim]
    return "[" * ndim, np.array(after, dtype=object), [math.prod(shape[ndim - j:]) for j in range(ndim + 1)]


def _json_with_array_bytes(doc: dict, key: str, shape: tuple, entry: int) -> int:
    """Bytes ``_write_json_with_array`` writes for an array of ``shape`` whose
    every entry's repr takes ``entry`` bytes: the brackets and ``", "`` of
    ``_json_layout`` take the place of ``null`` in the dump, whose non-ASCII
    characters json escapes."""
    head, after, blocks = _json_layout(shape)
    closing = [blocks[-1] // block for block in blocks] + [0]  # entries that close at least j axes
    text = len(head) + sum(len(sep) * (closing[j] - closing[j + 1]) for j, sep in enumerate(after))
    return len(json.dumps({**doc, key: None}, indent=2, sort_keys=True)) - len("null") + text + blocks[-1] * entry + 1


def _write_json_with_array(path: Path, doc: dict, key: str, array: np.ndarray) -> None:
    """``_write_json``'s dump of ``{**doc, key: None}`` with ``json.dumps(array.tolist())`` in place of
    that ``null``: ``_CHUNK`` entries at a time, each one's ``float.__repr__`` (as json writes finite
    floats) then its separator. ``"<key>": null`` marks the array's place; in a JSON string its quotes are escaped."""
    head, _, tail = json.dumps({**doc, key: None}, indent=2, sort_keys=True).partition(f'"{key}": null')
    first, after, blocks = _json_layout(array.shape)
    with path.open("w", encoding="utf-8") as f:
        f.write(head + f'"{key}": ' + first)
        for start in range(0, array.size, _CHUNK):
            chunk = array.flat[start:start + _CHUNK].tolist()
            index = np.arange(start + 1, start + len(chunk) + 1)
            seps = after[sum(index % block == 0 for block in blocks[1:])].tolist()
            f.write("".join(map(str.__add__, map(float.__repr__, chunk), seps)))
        f.write(tail + "\n")


def _read_input(path: str) -> str:
    """Text of an input file; one that cannot be read as UTF-8 text is a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_tree(path: str):
    return parse_newick(_read_input(path))


def _load_alignment(path: str):
    return parse_fasta(_read_input(path))


def _draw(values: np.ndarray, rng: np.random.Generator, sites: int) -> np.ndarray:
    """Flat indices of ``sites`` draws, as ``Generator.choice(p=...)`` makes them, from one copy."""
    cdf = values.ravel() / values.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(sites), side="right")


def cmd_simulate(args) -> int:
    tree = _load_tree(args.tree)
    # Per site: the flat draw and one index per leaf (int64), then one leaf's FASTA
    # row at a time (uint8); drawing holds only the uniforms and the draw (float64, int64).
    size = args.sites * (8 + 9 * tree.n_leaves)
    if size > MAX_TENSOR_BYTES:
        raise ModelError(f"a sample of {args.sites} sites for {tree.n_leaves} taxa needs "
                         f"{size} bytes, over the {MAX_TENSOR_BYTES}-byte limit")
    doc = {"alphabet": tree.alphabet.name, "leaves": list(tree.leaf_names),
           "seed": args.seed, "sites": args.sites}
    # An entry is written as its repr, 23 bytes at most for a float in [0, 1].
    size = _json_with_array_bytes(doc, "pattern_probabilities", (tree.n_states,) * tree.n_leaves, 23)
    if size > MAX_TENSOR_BYTES:
        raise ModelError(f"patterns.json of {tree.n_states}**{tree.n_leaves} entries may take "
                         f"{size} bytes, over the {MAX_TENSOR_BYTES}-byte limit")
    tensor = simulate_tree(tree)
    rng = np.random.default_rng(args.seed)
    draws = _draw(tensor.values, rng, args.sites)
    patterns = np.unravel_index(draws, tensor.values.shape)
    codes = np.frombuffer("".join(tree.alphabet.symbols).encode("ascii"), dtype=np.uint8)
    out = Path(args.out)
    fasta_path = out.with_name(out.name + ".fasta")
    doc_path = out.with_name(out.name + ".patterns.json")
    with fasta_path.open("wb") as f:
        for name, row in zip(tree.leaf_names, patterns):
            f.writelines((f">{name}\n".encode("utf-8"), codes[row], b"\n"))
    _write_json_with_array(doc_path, doc, "pattern_probabilities", tensor.values)
    print(f"simulated {args.sites} sites for {tree.n_leaves} taxa")
    print(f"wrote {fasta_path} and {doc_path}")
    return EXIT_OK


def cmd_likelihood(args) -> int:
    tree = _load_tree(args.tree)
    aln = _load_alignment(args.alignment)
    engines = ENGINES if args.engine == "all" else (args.engine,)
    reports = {tag: alignment_loglik(tree, aln, engine=tag) for tag in engines}
    for tag, report in reports.items():
        print(f"{tag}: total log-likelihood {report.total_log_likelihood:.12g} "
              f"({aln.n_sites} sites)")
    doc = {"engines": {tag: rep.to_document() for tag, rep in reports.items()}}
    if len(reports) > 1:
        deviations = {}
        tags = list(reports)
        for i, one in enumerate(tags):
            for other in tags[i + 1:]:
                a, b = reports[one], reports[other]
                deviations[f"{one}_vs_{other}"] = {
                    "total": abs(a.total_log_likelihood - b.total_log_likelihood),
                    "per_site_max": float(np.abs(a.likelihood - b.likelihood).max()),
                }
        doc["cross_engine_deviation"] = deviations
        worst = max(d["total"] for d in deviations.values())
        print(f"max cross-engine deviation in total log-likelihood: {worst:.3e}")
    if args.out:
        _write_json(Path(args.out), doc)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    tree = _load_tree(args.tree)
    aln = _load_alignment(args.alignment)
    problem = OptimizationProblem(tree=tree, alignment=aln, family=args.family,
                                  engine=args.engine, seed=args.seed)
    result = maximize_loglik(problem)
    fitted = ", ".join(f"{n}={v:.10g}" for n, v in zip(result.names, result.w_star))
    print(f"{args.family} fit ({args.engine} engine): {fitted}")
    print(f"log-likelihood {result.loglik:.12g} after {result.n_eval} EM steps "
          f"({'converged' if result.converged else 'EM step budget reached'})")
    if args.out:
        _write_json(Path(args.out), result.to_document())
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(level=args.level)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} suite(s) failed: " + ", ".join(r.name for r in failed))
        return EXIT_VERIFY
    print("all suites passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qphylo",
                                     description="Quantum-circuit simulation of phylogenetic "
                                                 "pattern distributions and tree likelihoods.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample an alignment from a tree's pattern distribution")
    sim.add_argument("--tree", required=True, help="Newick file")
    sim.add_argument("--sites", type=_int_at_least(1), required=True, help="number of sites to sample")
    sim.add_argument("--seed", type=_int_at_least(0), required=True, help="sampling seed")
    sim.add_argument("--out", required=True, help="output prefix (<out>.fasta, <out>.patterns.json)")
    sim.set_defaults(run=cmd_simulate)

    lik = sub.add_parser("likelihood", help="alignment log-likelihood under one or all engines")
    lik.add_argument("--tree", required=True, help="Newick file")
    lik.add_argument("--alignment", required=True, help="FASTA file")
    lik.add_argument("--engine", default="classical", choices=ENGINES + ("all",))
    lik.add_argument("--out", help="write the JSON report here")
    lik.set_defaults(run=cmd_likelihood)

    opt = sub.add_parser("optimize", help="maximum-likelihood fit of shared model weights")
    opt.add_argument("--tree", required=True, help="Newick file (topology)")
    opt.add_argument("--alignment", required=True, help="FASTA file")
    opt.add_argument("--family", required=True, choices=FAMILIES)
    opt.add_argument("--engine", default="classical", choices=ENGINES)
    opt.add_argument("--seed", type=int, required=True, help="recorded in the report")
    opt.add_argument("--out", help="write the JSON report here")
    opt.set_defaults(run=cmd_optimize)

    ver = sub.add_parser("verify", help="run the cross-representation property suites")
    ver.add_argument("--level", default="default", choices=("default", "deep"))
    ver.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # _read_input turns read failures into ParseError
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except TaxaMismatchError as exc:
        print(f"taxa mismatch: {exc}", file=sys.stderr)
        return EXIT_TAXA
    except ZeroLikelihoodError as exc:
        print(f"zero likelihood: {exc}", file=sys.stderr)
        return EXIT_ZERO_LIKELIHOOD
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except QPhyloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except MemoryError as exc:  # the backstop: nothing yet refuses an alignment too large up front
        line = f"error: out of memory{f': {exc}' if str(exc) else ''}"  # numpy's may list a dtype's every field
        print(line if len(line) <= 200 else line[:197] + "...", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
