"""The three benchmark workloads: inputs, one cycle of program calls, gates.

Each workload builds its inputs from the workload seed with numpy's seeded
generator; the program sees only Newick text, FASTA text and CLI argv. One
cycle is a fixed sequence of program calls that a single caller issues one
after another (a closed loop). Every call goes through ``ledger.call``,
``ledger.measure`` or ``ledger.cli``, which time it and record whether it
failed; every correctness check goes through ``ledger.gate`` at the pinned
acceptance tolerance.

- ``recovery``: criterion 9's shape. A balanced 4-taxon JC(a=0.1) tree and
  2000 sites drawn from the exact pattern tensor per replicate (~250 unique
  patterns). Tiny tree, heavy pattern sharing, many evaluations: the fixed
  cost of each likelihood evaluation dominates.
- ``wide``: a balanced 32-leaf tree with JC/K2/K3/F edges and a root pi,
  300 uniformly random sites (every site unique). The per-pattern,
  per-node reduction dominates; the optimizer is not used.
- ``pipeline``: the CLI in process on a 9-leaf mixed-family tree:
  ``simulate --sites 1000``, ``likelihood --engine all``, ``optimize
  --family K2`` and ``verify``, then the library on the files the CLI
  wrote. Writes the 4^9 exact tensor as well as reading.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from qphylo import cli, engine, optimize, treeio

ENGINES = ("classical", "quantum", "dual")
SYMBOLS = "ACGT"

ENGINE_TOL = 1e-8        # criterion 7: engines agree on the total log-likelihood
PATTERN_TOL = 1e-10      # criterion 8: site likelihood equals its pattern probability
ESTIMATE_TOL = 1e-4      # criterion 9: classical and quantum estimates agree
NESTED_TOL = 1e-9        # the per-edge fit is at least as good as the shared fit

EDGE_CHANGE = 0.05
CLASSICAL_REPEATS = 3

# Offsets applied to a value before its gate sees it; only the self-check sets them.
PERTURBATIONS = {
    "engine_total": 1e-6,
    "simulate": 1e-9,
    "fit_estimate": 1e-3,
    "per_edge": 1e-6,
    "site_prob": 1e-9,
    "output_bytes": 1,
    "counts": 1,
}


def fasta_text(names, data) -> str:
    return "".join(f">{n}\n{''.join(SYMBOLS[i] for i in row)}\n" for n, row in zip(names, data))


def unique_patterns(data: np.ndarray) -> int:
    return len(np.unique(np.asarray(data).T, axis=0))


def _distribution(rng) -> tuple:
    """Four positive probabilities near uniform, as text with six decimals summing to 1."""
    micro = np.floor(rng.dirichlet(np.full(4, 40.0)) * 0.9e6).astype(int) + 25_000
    micro[-1] = 1_000_000 - micro[:-1].sum()
    pi = micro / 1e6
    return "{" + ",".join(f"{p:.6f}" for p in pi) + "}", pi


def _random_edge(rng) -> str:
    """A random family whose substitution probability is about EDGE_CHANGE.

    Fixing the amount of change per edge keeps the pattern diversity of a
    simulated alignment, and so the work per likelihood, similar across seeds.
    """
    family = ("JC", "K2", "K3", "F")[int(rng.integers(4))]
    p = EDGE_CHANGE
    if family == "JC":
        return f"[&model=JC,a={p / 3:.6f}]"
    if family == "K2":
        u = rng.uniform(0.2, 0.8)
        return f"[&model=K2,a={p * u:.6f},b={p * (1 - u) / 2:.6f}]"
    if family == "K3":
        a, b, c = p * rng.dirichlet(np.full(3, 4.0))
        return f"[&model=K3,a={a:.6f},b={b:.6f},c={c:.6f}]"
    text, pi = _distribution(rng)
    # F changes state with probability (1 - a)(1 - sum pi^2).
    return f"[&model=F,a={1 - p / (1 - pi @ pi):.6f},pi={text}]"


def mixed_tree(rng, names) -> str:
    """Balanced Newick tree, a random JC/K2/K3/F model on each edge, root pi."""

    def build(group, is_root=False):
        if len(group) == 1:
            return group[0] + _random_edge(rng)
        half = (len(group) + 1) // 2
        node = f"({build(group[:half])},{build(group[half:])})"
        return node if is_root else node + _random_edge(rng)

    return f"{build(list(names), True)}[&pi={_distribution(rng)[0]}];"


class Workload:
    """Inputs for one workload seed plus the cycle run against them."""

    name = ""
    rounds = 2  # likelihood rounds (one call per engine) at each measurement point

    def __init__(self, seed: int, perturb: frozenset, workdir: Path):
        self.seed = seed
        self.perturb = perturb
        self.workdir = workdir

    def offset(self, key: str) -> float:
        return PERTURBATIONS[key] if key in self.perturb or "all" in self.perturb else 0

    def check_engines(self, ledger, totals: dict, ops: dict) -> None:
        """Criterion 7 on one set of per-engine totals."""
        quantum = totals["quantum"] + self.offset("engine_total")
        worst = max(abs(totals["classical"] - quantum), abs(totals["classical"] - totals["dual"]))
        ledger.gate("engines_agree", worst < ENGINE_TOL, ops["quantum"], ops["dual"])

    def loglik_rounds(self, ledger, tree, aln) -> dict:
        return [self.loglik_all(ledger, tree, aln) for _ in range(self.rounds)][-1]

    def loglik_all(self, ledger, tree, aln) -> dict:
        """Full-alignment alignment_loglik calls for each engine, then criterion 7.

        The classical engine, 10 to 30 times faster than the others, is called
        CLASSICAL_REPEATS times so that its median rests on as many samples.
        """
        totals, ops = {}, {}
        for e in ENGINES:
            for _ in range(CLASSICAL_REPEATS if e == "classical" else 1):
                report = ledger.measure(f"loglik.{e}", engine.alignment_loglik, tree, aln, engine=e)
            totals[e], ops[e] = report.total_log_likelihood, ledger.last
        self.check_engines(ledger, totals, ops)
        return totals


RECOVERY_TREE = ("((A[&model=JC,a=0.1],B[&model=JC,a=0.1])[&model=JC,a=0.1],"
                 "(C[&model=JC,a=0.1],D[&model=JC,a=0.1])[&model=JC,a=0.1]);")
RECOVERY_SITES = 2000


def jc_matrix(a: float) -> np.ndarray:
    return np.full((4, 4), a) + (1.0 - 4.0 * a) * np.eye(4)


class Recovery(Workload):
    """Criterion 9: per replicate, three ML fits with likelihood rounds around them."""

    name = "recovery"

    def __init__(self, seed, perturb, workdir):
        super().__init__(seed, perturb, workdir)
        m = jc_matrix(0.1)
        pi = np.full(4, 0.25)
        # Exact pattern tensor of ((A,B),(C,D)), built here independently of the program.
        self.tensor = np.einsum("r,ur,au,bu,vr,cv,dv->abcd", pi, m, m, m, m, m, m)
        self.names = ("A", "B", "C", "D")

    def replicate(self, index: int):
        rep_seed = self.seed + index
        flat = self.tensor.ravel()
        rng = np.random.default_rng(rep_seed)
        draws = rng.choice(flat.size, size=RECOVERY_SITES, p=flat / flat.sum())
        data = np.array(np.unravel_index(draws, self.tensor.shape))
        return rep_seed, data

    def warm_up(self, ledger) -> None:
        _, data = self.replicate(0)
        tree = ledger.call("parse.newick", treeio.parse_newick, RECOVERY_TREE)
        aln = ledger.call("parse.fasta", treeio.parse_fasta, fasta_text(self.names, data))
        self.loglik_all(ledger, tree, aln)

    def cycle(self, ledger, index: int) -> dict:
        rep_seed, data = self.replicate(index)
        tree = ledger.call("parse.newick", treeio.parse_newick, RECOVERY_TREE)
        aln = ledger.call("parse.fasta", treeio.parse_fasta, fasta_text(self.names, data))
        simulated = ledger.call("simulate_tree", engine.simulate_tree, tree)
        expected = self.tensor + self.offset("simulate")
        ledger.gate("simulate_matches_reference",
                    np.abs(simulated.values - expected).max() < PATTERN_TOL, ledger.last)
        # Likelihood rounds sit between the fits so that their samples spread over the run.
        fits = {}
        for key, eng, per_edge in (("shared_classical", "classical", False),
                                   ("shared_quantum", "quantum", False),
                                   ("per_edge", "classical", True)):
            self.loglik_rounds(ledger, tree, aln)
            problem = optimize.OptimizationProblem(tree=tree, alignment=aln, family="JC",
                                                   engine=eng, seed=rep_seed, per_edge=per_edge)
            fits[key] = (ledger.call(f"fit.{key}", optimize.maximize_loglik, problem), ledger.last)
        self.loglik_rounds(ledger, tree, aln)
        (classical, _), (quantum, q_op), (per_edge, e_op) = (
            fits["shared_classical"], fits["shared_quantum"], fits["per_edge"])
        drift = abs(classical.w_star[0] - quantum.w_star[0] - self.offset("fit_estimate"))
        ledger.gate("estimates_agree", drift <= ESTIMATE_TOL, q_op)
        # The perturbed per-edge fit ends just below the shared optimum it nests.
        per_edge_loglik = (classical.loglik - self.offset("per_edge") if self.offset("per_edge")
                           else per_edge.loglik)
        ledger.gate("per_edge_not_worse", per_edge_loglik >= classical.loglik - NESTED_TOL, e_op)
        return {
            "input": f"replicate-{rep_seed}",
            "sites": RECOVERY_SITES,
            "unique_patterns": unique_patterns(data),
            "n_eval": {k: f[0].n_eval for k, f in fits.items()},
            "converged": {k: f[0].converged for k, f in fits.items()},
        }


WIDE_LEAVES = 32
WIDE_SITES = 300


class Wide(Workload):
    """A 32-leaf mixed-family tree, every site a distinct pattern."""

    name = "wide"

    def __init__(self, seed, perturb, workdir):
        super().__init__(seed, perturb, workdir)
        rng = np.random.default_rng(seed)
        names = [f"t{i + 1}" for i in range(WIDE_LEAVES)]
        self.tree_text = mixed_tree(rng, names)
        data = rng.integers(0, 4, size=(WIDE_LEAVES, WIDE_SITES))
        self.fasta = fasta_text(names, data)
        self.warm_fasta = fasta_text(names, data[:, :16])
        self.unique = unique_patterns(data)

    def warm_up(self, ledger) -> None:
        tree = ledger.call("parse.newick", treeio.parse_newick, self.tree_text)
        aln = ledger.call("parse.fasta", treeio.parse_fasta, self.warm_fasta)
        self.loglik_all(ledger, tree, aln)

    def cycle(self, ledger, index: int) -> dict:
        tree = ledger.call("parse.newick", treeio.parse_newick, self.tree_text)
        aln = ledger.call("parse.fasta", treeio.parse_fasta, self.fasta)
        self.loglik_all(ledger, tree, aln)
        return {
            "input": f"seed-{self.seed}",
            "sites": WIDE_SITES,
            "unique_patterns": self.unique + (self.offset("counts") if index else 0),
        }


PIPELINE_LEAVES = 9
PIPELINE_SITES = 1000


class Pipeline(Workload):
    """The four CLI commands in process, outputs checked and compared per cycle."""

    name = "pipeline"
    rounds = 10

    def __init__(self, seed, perturb, workdir):
        super().__init__(seed, perturb, workdir)
        rng = np.random.default_rng(seed)
        self.names = [f"t{i + 1}" for i in range(PIPELINE_LEAVES)]
        self.tree_text = mixed_tree(rng, self.names)
        self.sample_seed = int(rng.integers(1, 2**31))
        workdir.mkdir(parents=True, exist_ok=True)
        self.tree_path = workdir / "tree.nwk"
        self.tree_path.write_text(self.tree_text, encoding="utf-8")
        self.sim = workdir / "sim"
        self.fasta_path = workdir / "sim.fasta"
        self.patterns_path = workdir / "sim.patterns.json"
        self.lik_path = workdir / "lik.json"
        self.fit_path = workdir / "fit.json"
        self.warm_fasta = fasta_text(self.names, rng.integers(0, 4, size=(PIPELINE_LEAVES, 16)))
        self.reference = None  # output digests of the first cycle

    def warm_up(self, ledger) -> None:
        tree = ledger.call("parse.newick", treeio.parse_newick, self.tree_text)
        aln = ledger.call("parse.fasta", treeio.parse_fasta, self.warm_fasta)
        self.loglik_all(ledger, tree, aln)

    def commands(self) -> dict:
        tree, fasta, seed = str(self.tree_path), str(self.fasta_path), str(self.sample_seed)
        return {
            "simulate": ["simulate", "--tree", tree, "--sites", str(PIPELINE_SITES),
                         "--seed", seed, "--out", str(self.sim)],
            "likelihood": ["likelihood", "--tree", tree, "--alignment", fasta,
                           "--engine", "all", "--out", str(self.lik_path)],
            "optimize": ["optimize", "--tree", tree, "--alignment", fasta, "--family", "K2",
                         "--seed", seed, "--out", str(self.fit_path)],
            "verify": ["verify", "--level", "default"],
        }

    def cycle(self, ledger, index: int) -> dict:
        stdout, ops = {}, {}
        for command, argv in self.commands().items():
            stdout[command] = ledger.cli(f"cli.{command}", cli.main, argv)
            ops[command] = ledger.last
        outputs = {("simulate", "fasta"): self.fasta_path,
                   ("simulate", "patterns"): self.patterns_path,
                   ("likelihood", "report"): self.lik_path,
                   ("optimize", "report"): self.fit_path}
        blobs = {k: p.read_bytes() for k, p in outputs.items()}
        blobs.update({(c, "stdout"): out.encode() for c, out in stdout.items()})

        # The library called directly on the files the CLI wrote.
        tree = ledger.call("parse.newick", treeio.parse_newick, self.tree_text)
        aln = ledger.call("parse.fasta", treeio.parse_fasta, blobs["simulate", "fasta"].decode())
        direct = self.loglik_rounds(ledger, tree, aln)

        lik = json.loads(blobs["likelihood", "report"])["engines"]
        cli_totals = {e: lik[e]["total_log_likelihood"] for e in ENGINES}
        self.check_engines(ledger, cli_totals, {e: ops["likelihood"] for e in ENGINES})
        ledger.gate("cli_matches_library",
                    max(abs(cli_totals[e] - direct[e]) for e in ENGINES) < ENGINE_TOL,
                    ops["likelihood"])

        probs = np.array(json.loads(blobs["simulate", "patterns"])["pattern_probabilities"])
        expected = probs[tuple(aln.data)]
        expected[0] += self.offset("site_prob")
        worst = max(np.abs(np.array([s["likelihood"] for s in lik[e]["per_site"]]) - expected).max()
                    for e in ENGINES)
        ledger.gate("site_likelihood_is_pattern_probability", worst < PATTERN_TOL,
                    ops["likelihood"])

        digests = {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}
        if index and self.offset("output_bytes"):
            digests["simulate", "fasta"] = "perturbed"
        if self.reference is None:
            self.reference = digests
        else:
            for key, digest in digests.items():
                ledger.gate("outputs_repeat_bytewise", digest == self.reference[key], ops[key[0]])

        fit = json.loads(blobs["optimize", "report"])
        return {
            "input": f"seed-{self.seed}",
            "sites": PIPELINE_SITES,
            "unique_patterns": unique_patterns(aln.data) + (self.offset("counts") if index else 0),
            "n_eval": {"optimize": fit["n_eval"]},
            "converged": {"optimize": fit["converged"]},
            "tensor_bytes": probs.size * 8,
            "output_bytes": {c: sum(len(v) for (producer, _), v in blobs.items() if producer == c)
                             for c in stdout},
        }


WORKLOADS = {w.name: w for w in (Recovery, Wide, Pipeline)}
