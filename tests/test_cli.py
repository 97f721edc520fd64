import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qphylo import cli, verify
from qphylo.engine import simulate_tree
from qphylo.errors import ModelError
from qphylo.models import FAMILIES, ModelParams
from qphylo.treeio import parse_fasta, parse_newick

BALANCED = "((A:0.1,B:0.1):0.05,(C:0.2,D:0.2):0.05);"
ZERO_CHERRY = "(A:0.0,B:0.0);"
BINARY_TRIPLE = "((A[&model=B,a=0.2],B[&model=B,a=0.1])[&model=B,a=0.3],C[&model=B,a=0.05]);"


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.nwk"
    path.write_text(BALANCED)
    return path


def run(args):
    return cli.main([str(a) for a in args])


def simulate(tmp_path, tree_file, seed=7, sites=30, name="run"):
    out = tmp_path / name
    code = run(["simulate", "--tree", tree_file, "--sites", sites, "--seed", seed, "--out", out])
    assert code == 0
    return out.with_name(out.name + ".fasta"), out.with_name(out.name + ".patterns.json")


class TestSimulate:
    def test_writes_alignment_and_pattern_document(self, tmp_path, tree_file):
        fasta, doc_path = simulate(tmp_path, tree_file)
        text = fasta.read_text()
        assert text.startswith(">A\n")
        doc = json.loads(doc_path.read_text())
        values = np.array(doc["pattern_probabilities"])
        assert values.shape == (4, 4, 4, 4)
        assert abs(values.sum() - 1.0) < 1e-10
        assert doc["leaves"] == ["A", "B", "C", "D"]

    def test_zero_evolution_gives_constant_columns(self, tmp_path):
        tree = tmp_path / "cherry.nwk"
        tree.write_text(ZERO_CHERRY)
        fasta, _ = simulate(tmp_path, tree, sites=10)
        lines = fasta.read_text().splitlines()
        assert lines[1] == lines[3]  # both taxa identical at every site

    def test_identical_seeds_are_byte_identical(self, tmp_path, tree_file):
        f1, d1 = simulate(tmp_path, tree_file, name="one")
        f2, d2 = simulate(tmp_path, tree_file, name="two")
        assert f1.read_bytes() == f2.read_bytes()
        assert d1.read_bytes() == d2.read_bytes()

    def test_different_seeds_differ(self, tmp_path, tree_file):
        f1, _ = simulate(tmp_path, tree_file, seed=1, name="one")
        f2, _ = simulate(tmp_path, tree_file, seed=2, name="two")
        assert f1.read_bytes() != f2.read_bytes()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.nwk"
        bad.write_text("((A,B);")
        assert run(["simulate", "--tree", bad, "--sites", 5, "--seed", 1,
                    "--out", tmp_path / "x"]) == cli.EXIT_PARSE

    def test_oversized_tensor_exit_code(self, tmp_path, capsys):
        big = tmp_path / "big.nwk"
        big.write_text("(" * 19 + "t0:0.1" + "".join(f",t{i}:0.1):0.1" for i in range(1, 20)) + ";")
        assert run(["simulate", "--tree", big, "--sites", 5, "--seed", 1,
                    "--out", tmp_path / "x"]) == cli.EXIT_MODEL
        assert "4**20 entries" in capsys.readouterr().err
        assert not (tmp_path / "x.fasta").exists()

    def test_large_sample_frequencies_track_exact_tensor(self, tmp_path, tree_file):
        # Fixed seed chosen so every pattern stays inside its 3-sigma
        # multinomial band at this sample size.
        fasta, doc_path = simulate(tmp_path, tree_file, seed=3, sites=100_000)
        probs = np.array(json.loads(doc_path.read_text())["pattern_probabilities"]).ravel()
        lines = fasta.read_text().splitlines()
        seqs = [lines[i] for i in (1, 3, 5, 7)]
        lookup = {"A": 0, "C": 1, "G": 2, "T": 3}
        n = len(seqs[0])
        counts = np.zeros(256)
        for site in range(n):
            idx = 0
            for seq in seqs:
                idx = idx * 4 + lookup[seq[site]]
            counts[idx] += 1
        freq = counts / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        z = np.abs(freq - probs) / np.where(sigma > 0, sigma, 1.0)
        assert z.max() < 3.0

    @pytest.mark.parametrize("newick", [BALANCED, BINARY_TRIPLE], ids=["dna", "binary"])
    @pytest.mark.parametrize("seed", [0, 19])
    def test_fasta_matches_per_character_reference(self, tmp_path, newick, seed):
        tree_path = tmp_path / "tree.nwk"
        tree_path.write_text(newick)
        fasta, _ = simulate(tmp_path, tree_path, seed=seed, sites=2000)
        tree = parse_newick(newick)
        values = simulate_tree(tree).values
        patterns = np.unravel_index(cli._draw(values, np.random.default_rng(seed), 2000), values.shape)
        symbols, lines = tree.alphabet.symbols, []
        for row, name in enumerate(tree.leaf_names):
            lines += [f">{name}", "".join(symbols[idx] for idx in patterns[row])]
        assert fasta.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        alignment = parse_fasta(fasta.read_text())
        assert alignment.taxa == tree.leaf_names
        assert alignment.alphabet == tree.alphabet
        assert np.array_equal(alignment.data, np.stack(patterns))


    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from(FAMILIES),
           st.lists(st.text(), max_size=3))
    @example(seed=0, n_leaves=2, family="JC", names=['"pattern_probabilities": null'])
    def test_streamed_patterns_match_write_json_bytewise(self, seed, n_leaves, family, names):
        # Extra leaf texts, such as '"pattern_probabilities": null', must not move the array.
        tree, _ = verify.random_instance(np.random.default_rng(seed), n_leaves, family)
        tensor = simulate_tree(tree).values
        doc = {"alphabet": tree.alphabet.name, "leaves": [*tree.leaf_names, *names],
               "seed": seed, "sites": n_leaves}
        with tempfile.TemporaryDirectory() as tmp:
            streamed, reference = Path(tmp, "streamed.json"), Path(tmp, "reference.json")
            cli._write_json_with_array(streamed, doc, "pattern_probabilities", tensor)
            cli._write_json(reference, {**doc, "pattern_probabilities": tensor.tolist()})
            assert streamed.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("values", [
        lambda: simulate_tree(verify.random_instance(np.random.default_rng(7), 7, "JC")[0]).values,
        lambda: simulate_tree(verify.random_instance(np.random.default_rng(13), 13, "B")[0]).values,
        lambda: np.random.default_rng(5).random((3, 5, 7, 11, 13)),  # seams fall inside rows
    ], ids=["dna-7", "binary-13", "ragged"])
    def test_streamed_patterns_match_write_json_across_chunks(self, tmp_path, values):
        values = values()
        assert values.size >= 2 * cli._CHUNK
        doc = {"alphabet": "dna", "leaves": ["A"], "seed": 0, "sites": 1}
        streamed, reference = tmp_path / "streamed.json", tmp_path / "reference.json"
        cli._write_json_with_array(streamed, doc, "pattern_probabilities", values)
        cli._write_json(reference, {**doc, "pattern_probabilities": values.tolist()})
        assert streamed.read_bytes() == reference.read_bytes()
        bound = cli._json_with_array_bytes(doc, "pattern_probabilities", values.shape, 23)
        assert len(streamed.read_bytes()) == bound - sum(23 - len(repr(v)) for v in values.ravel().tolist())

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["binary", "dna"]), st.integers(1, 6),
           st.lists(st.text(), max_size=3))
    def test_patterns_bound_is_exact_but_for_the_entries(self, seed, alphabet, n_leaves, names):
        # Entries of many repr lengths: zero, one, subnormals, and 2.2250738585072014e-308,
        # whose 23 characters are the most a float in [0, 1] takes.
        rng = np.random.default_rng(seed)
        shape = ({"binary": 2, "dna": 4}[alphabet],) * n_leaves
        values = rng.random(shape) * 10.0 ** -rng.integers(0, 330, shape)
        values.flat[rng.integers(values.size, size=3)] = (0.0, 1.0, 2.2250738585072014e-308)
        doc = {"alphabet": alphabet, "leaves": names, "seed": seed, "sites": n_leaves}
        reprs = list(map(repr, values.ravel().tolist()))
        assert max(map(len, reprs)) <= 23
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "patterns.json")
            cli._write_json_with_array(path, doc, "pattern_probabilities", values)
            written = len(path.read_bytes())
        bound = cli._json_with_array_bytes(doc, "pattern_probabilities", values.shape, 23)
        assert written == bound - sum(23 - len(r) for r in reprs)

    @pytest.mark.parametrize("edge, states, leaves", [(":0.1", 4, 12), ("[&model=B,a=0.1]", 2, 23)])
    def test_oversized_patterns_file_refused_before_allocating(self, tmp_path, capsys, edge,
                                                               states, leaves):
        caterpillar = "(" * (leaves - 1) + f"t0{edge}" + "".join(f",t{i}{edge}){edge}"
                                                               for i in range(1, leaves))
        tree = tmp_path / "cat.nwk"
        tree.write_text(caterpillar.removesuffix(edge) + ";")
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            code = run(["simulate", "--tree", tree, "--sites", 5, "--seed", 1, "--out", out])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_MODEL
        assert peak < 1 << 20
        doc = {"alphabet": {2: "binary", 4: "dna"}[states], "leaves": [f"t{i}" for i in range(leaves)],
               "seed": 1, "sites": 5}
        bound = cli._json_with_array_bytes(doc, "pattern_probabilities", (states,) * leaves, 23)
        assert capsys.readouterr().err == (f"model error: patterns.json of {states}**{leaves} entries "
                                           f"may take {bound} bytes, over the {2**30}-byte limit\n")
        assert not out.with_name("run.fasta").exists()
        # One leaf fewer fits.
        doc["leaves"].pop()
        assert cli._json_with_array_bytes(doc, "pattern_probabilities", (states,) * (leaves - 1), 23) <= 2**30

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), st.integers(1, 6),
           st.integers(1, 2000), st.floats(0.0, 0.9))
    def test_draws_match_generator_choice(self, seed, states, taxa, sites, zeroed):
        # Zero entries make flat steps in the cumulative sum, which no draw may land on.
        rng, size = np.random.default_rng(seed), states ** taxa
        keep = rng.random(size) >= zeroed
        keep[rng.integers(size)] = True
        values = rng.dirichlet(np.ones(size)) * keep
        values = (values / values.sum()).reshape((states,) * taxa)
        flat = values.ravel()
        expected = np.random.default_rng(seed).choice(flat.size, size=sites, p=flat / flat.sum())
        drawn = cli._draw(values, np.random.default_rng(seed), sites)
        assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("sites", [-1, 0, "x"])
    def test_sites_below_one_rejected_by_argparse(self, tmp_path, tree_file, capsys, sites):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--tree", tree_file, "--sites", sites, "--seed", 1, "--out", out])
        assert err.value.code == cli.EXIT_PARSE
        assert "--sites" in capsys.readouterr().err
        assert not out.with_name("run.fasta").exists()

    @pytest.mark.parametrize("seed", [-1, "x"])
    def test_seed_below_zero_rejected_by_argparse(self, tmp_path, tree_file, capsys, seed):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--tree", tree_file, "--sites", 5, "--seed", seed, "--out", out])
        assert err.value.code == cli.EXIT_PARSE
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("sites", [10**13, 10**20])
    def test_oversized_sample_refused_before_allocating(self, tmp_path, tree_file, capsys, sites):
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            code = run(["simulate", "--tree", tree_file, "--sites", sites, "--seed", 1, "--out", out])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_MODEL
        assert peak < 1 << 20
        assert f"{sites} sites for 4 taxa needs {sites * 44} bytes" in capsys.readouterr().err
        assert not out.with_name("run.fasta").exists()

    @pytest.mark.parametrize("newick, leaves", [("(A:0.1,B:0.2);", 2), (BALANCED, 4)], ids=["2", "4"])
    def test_sample_peak_stays_within_its_budget(self, tmp_path, newick, leaves):
        # The budget counts (8 + 9 * leaves) bytes a site; 1 MiB covers the tensor and the
        # chunk strings. The warm-up run pays the first call's imports (about 1.2 MB traced).
        tree = tmp_path / "tree.nwk"
        tree.write_text(newick)
        simulate(tmp_path, tree, sites=10, name="warm")
        sites = 500_000
        tracemalloc.start()
        try:
            simulate(tmp_path, tree, sites=sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (8 + 9 * leaves) * sites + (1 << 20)


class TestTreeInputExitCodes:
    @pytest.mark.parametrize("text", ["(A:0.1,B[&model=K2,a=0.1,b=x]);",
                                      "(A:0.1,B[&model=F,a=0.5,pi={0.1,0.2,0.3,x}]);"])
    def test_non_numeric_annotation_is_parse_error(self, tmp_path, capsys, text):
        tree = tmp_path / "tree.nwk"
        tree.write_text(text)
        assert run(["simulate", "--tree", tree, "--sites", 5, "--seed", 1,
                    "--out", tmp_path / "x"]) == cli.EXIT_PARSE
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["(A:-0.1,B:0.1);", "(A[&model=JC,t=-0.1],B:0.1);"],
                             ids=["bare_length", "t_annotation"])
    def test_negative_branch_length_is_parse_error(self, tmp_path, capsys, text):
        tree = tmp_path / "tree.nwk"
        tree.write_text(text)
        assert run(["simulate", "--tree", tree, "--sites", 5, "--seed", 1,
                    "--out", tmp_path / "x"]) == cli.EXIT_PARSE
        assert "branch length -0.1 is negative (at offset 1)" in capsys.readouterr().err

    def test_key_the_family_does_not_take_is_parse_error(self, tmp_path, capsys):
        tree = tmp_path / "tree.nwk"
        tree.write_text("(A[&model=K2,a=0.1,b=0.2,c=0.3],B:0.1);")
        fasta = tmp_path / "aln.fasta"
        fasta.write_text(">A\nAC\n>B\nAG\n")
        assert run(["likelihood", "--tree", tree, "--alignment", fasta]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == "parse error: model K2 does not take ['c'] (at offset 1)\n"

    def test_single_leaf_is_parse_error(self, tmp_path):
        tree = tmp_path / "tree.nwk"
        tree.write_text("A;")
        assert run(["simulate", "--tree", tree, "--sites", 5, "--seed", 1,
                    "--out", tmp_path / "x"]) == cli.EXIT_PARSE

    def test_unnormalized_root_distribution_is_model_error(self, tmp_path):
        tree = tmp_path / "tree.nwk"
        tree.write_text("(A:0.1,B:0.1)[&pi={0.5,0.5,0.5,0.5}];")
        assert run(["simulate", "--tree", tree, "--sites", 5, "--seed", 1,
                    "--out", tmp_path / "x"]) == cli.EXIT_MODEL


class TestModelWeightBounds:
    TREE = "(A[&model=B,a=1.0000000000001],B[&model=B,a=0.1]);"

    @pytest.mark.parametrize("command", ["simulate", "classical", "quantum", "dual"])
    def test_weight_just_above_one_is_parse_error_everywhere(self, tmp_path, capsys, command):
        tree = tmp_path / "tree.nwk"
        tree.write_text(self.TREE)
        fasta = tmp_path / "aln.fasta"
        fasta.write_text(">A\n01\n>B\n11\n")
        if command == "simulate":
            argv = ["simulate", "--tree", tree, "--sites", 5, "--seed", 1, "--out", tmp_path / "x"]
        else:
            argv = ["likelihood", "--tree", tree, "--alignment", fasta, "--engine", command]
        assert run(argv) == cli.EXIT_PARSE
        assert "invalid model parameters" in capsys.readouterr().err


class TestStationaryDistributionChecks:
    """A given pi must be finite and have no negative entry, at an edge or at the root.

    A Newick pi entry must be a number in the branch-length grammar, so the
    reader refuses a non-finite entry before any model check runs.
    """

    CASES = {
        "edge_nan": ("(A[&model=F,a=0.5,pi={nan,0.3,0.3,0.4}],B[&model=JC,a=0.1]);",
                     cli.EXIT_PARSE,
                     "annotation pi={nan,0.3,0.3,0.4} is not a list of numbers (at offset 4)"),
        "root_nan": ("(A[&model=JC,a=0.1],B[&model=JC,a=0.1])[&pi={nan,0.3,0.3,0.4}];",
                     cli.EXIT_PARSE,
                     "annotation pi={nan,0.3,0.3,0.4} is not a list of numbers (at offset 41)"),
        "root_negative": ("(A[&model=JC,a=0.0],B[&model=JC,a=0.0])"
                          "[&pi={-0.00000000000001,0.3,0.3,0.40000000000001}];",
                          cli.EXIT_MODEL, "root distribution: negative probability entry -1e-14"),
    }

    def test_model_checks_refuse_non_finite_entries(self):
        pi = (float("nan"), 0.3, 0.3, 0.4)
        with pytest.raises(ModelError, match="F stationary distribution: non-finite probability entry"):
            ModelParams.felsenstein(0.5, pi)
        tree = parse_newick("(A[&model=JC,a=0.1],B[&model=JC,a=0.1]);")
        with pytest.raises(ModelError, match="root distribution: non-finite probability entry"):
            dataclasses.replace(tree, root_pi=np.array(pi))

    @pytest.mark.parametrize("command", ["simulate", "likelihood"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_with_its_exit_code(self, tmp_path, capsys, case, command):
        text, code, message = self.CASES[case]
        tree = tmp_path / "tree.nwk"
        tree.write_text(text)
        fasta = tmp_path / "aln.fasta"
        fasta.write_text(">A\nAC\n>B\nAG\n")
        if command == "simulate":
            argv = ["simulate", "--tree", tree, "--sites", 5, "--seed", 1, "--out", tmp_path / "x"]
        else:
            argv = ["likelihood", "--tree", tree, "--alignment", fasta, "--engine", "all"]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert message in err
        assert ("(at offset" in err) == (code == cli.EXIT_PARSE)


class TestFileAccessExitCodes:
    @pytest.mark.parametrize("broken", ["tree", "alignment"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_input_is_parse_error(self, tmp_path, tree_file, capsys, broken, kind):
        aln = tmp_path / "aln.fasta"
        aln.write_text(">A\nAC\n>B\nAC\n>C\nAC\n>D\nAC\n")
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe(A,B);")
        paths = {"tree": tree_file, "alignment": aln, broken: bad}
        assert run(["likelihood", "--tree", paths["tree"],
                    "--alignment", paths["alignment"]]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot read {bad}" in err

    def test_unwritable_output_names_the_write(self, tmp_path, tree_file, capsys):
        out = tmp_path / "missing_dir" / "x"
        assert run(["simulate", "--tree", tree_file, "--sites", 5, "--seed", 1,
                    "--out", out]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert "missing_dir" in err


class TestLikelihood:
    def test_single_engine_report(self, tmp_path, tree_file, capsys):
        fasta, _ = simulate(tmp_path, tree_file)
        out = tmp_path / "report.json"
        assert run(["likelihood", "--tree", tree_file, "--alignment", fasta,
                    "--engine", "classical", "--out", out]) == 0
        doc = json.loads(out.read_text())
        report = doc["engines"]["classical"]
        assert report["total_log_likelihood"] == pytest.approx(
            sum(s["log"] for s in report["per_site"]))

    def test_all_engines_reports_deviations(self, tmp_path, tree_file, capsys):
        fasta, _ = simulate(tmp_path, tree_file)
        out = tmp_path / "report.json"
        assert run(["likelihood", "--tree", tree_file, "--alignment", fasta,
                    "--engine", "all", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["engines"]) == {"classical", "quantum", "dual"}
        devs = doc["cross_engine_deviation"]
        assert all(entry["total"] < 1e-8 for entry in devs.values())
        assert "max cross-engine deviation" in capsys.readouterr().out

    def test_missing_taxon_exit_code(self, tmp_path, tree_file):
        aln = tmp_path / "aln.fasta"
        aln.write_text(">A\nACGT\n>B\nACGT\n>C\nACGT\n")
        assert run(["likelihood", "--tree", tree_file, "--alignment", aln]) == cli.EXIT_TAXA

    def test_zero_likelihood_exit_code(self, tmp_path, capsys):
        tree = tmp_path / "cherry.nwk"
        tree.write_text(ZERO_CHERRY)
        aln = tmp_path / "aln.fasta"
        aln.write_text(">A\nAA\n>B\nAC\n")
        assert run(["likelihood", "--tree", tree, "--alignment", aln]) == cli.EXIT_ZERO_LIKELIHOOD
        assert "site 2" in capsys.readouterr().err

    def test_bad_fasta_exit_code(self, tmp_path, tree_file):
        aln = tmp_path / "aln.fasta"
        aln.write_text(">A\nAC-T\n")
        assert run(["likelihood", "--tree", tree_file, "--alignment", aln]) == cli.EXIT_PARSE


class TestOptimize:
    def test_fit_and_determinism(self, tmp_path, tree_file):
        fasta, _ = simulate(tmp_path, tree_file, sites=300)
        out1, out2 = tmp_path / "fit1.json", tmp_path / "fit2.json"
        for out in (out1, out2):
            assert run(["optimize", "--tree", tree_file, "--alignment", fasta,
                        "--family", "JC", "--seed", 5, "--out", out]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert 0.0 <= doc["w_star"]["a"] <= 1.0 / 3.0

    def test_family_alphabet_mismatch_exit_code(self, tmp_path, tree_file):
        aln = tmp_path / "binary.fasta"
        aln.write_text(">A\n0101\n>B\n0110\n>C\n0000\n>D\n1111\n")
        assert run(["optimize", "--tree", tree_file, "--alignment", aln,
                    "--family", "K3", "--seed", 1]) == cli.EXIT_MODEL


class TestVerify:
    def test_default_level_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "all suites passed" in out

    def test_perturbed_markov_fails_named_suite(self, capsys, monkeypatch):
        real = verify.apply_channel
        monkeypatch.setattr(verify, "apply_channel", lambda ch, rho: real(ch, rho) + 1e-3)
        assert run(["verify"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "dilation vs channel" in out
        assert "FAIL  dilation vs channel:" in out

    def test_takes_no_fault_injection_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["verify", "--perturb-markov"])
        assert err.value.code == cli.EXIT_PARSE
        assert "--perturb-markov" in capsys.readouterr().err


# Runs in a fresh interpreter, so no earlier import in this session can load
# scipy first; prints the scipy modules loaded after every command has run.
_FOOTPRINT_SCRIPT = textwrap.dedent('''
    import json, sys
    import qphylo
    from qphylo.cli import main
    tree, out = sys.argv[1], sys.argv[2]
    fasta = out + ".fasta"
    assert main(["simulate", "--tree", tree, "--sites", "20", "--seed", "3", "--out", out]) == 0
    assert main(["likelihood", "--tree", tree, "--alignment", fasta, "--engine", "all",
                 "--out", out + ".lik.json"]) == 0
    assert main(["optimize", "--tree", tree, "--alignment", fasta, "--family", "JC",
                 "--seed", "1", "--out", out + ".fit.json"]) == 0
    assert main(["verify"]) == 0
    print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
''')


# Also in a fresh interpreter: the qphylo submodules that importing the package root loads.
_ROOT_IMPORT_SCRIPT = textwrap.dedent('''
    import json, sys
    import qphylo
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("qphylo."))))
''')


def fresh_interpreter_output(script, *args):
    """The last stdout line of ``script`` run by a new interpreter that imports qphylo from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestImportFootprint:
    def test_no_command_loads_scipy(self, tmp_path, tree_file):
        assert fresh_interpreter_output(_FOOTPRINT_SCRIPT, tree_file, tmp_path / "run") == []

    def test_package_root_loads_no_submodule(self):
        assert fresh_interpreter_output(_ROOT_IMPORT_SCRIPT) == []


_LIMITED_SCRIPT = (
    "import resource, sys\n"
    "limit = int(sys.argv[1]) * 1024\n"
    "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
    "from qphylo.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


@pytest.fixture(scope="module")
def large_alignment(tmp_path_factory):
    """A 64-taxon tree and a 64 x 200,000-site random DNA FASTA (12.8 MB)."""
    root = tmp_path_factory.mktemp("large")
    names = [f"t{i}" for i in range(64)]
    text = "t0:0.1"
    for name in names[1:]:
        text = f"({text},{name}:0.1):0.1"
    (root / "tree.nwk").write_text(text + ";")
    rows = np.frombuffer(b"ACGT", dtype=np.uint8)[np.random.default_rng(64).integers(0, 4, (64, 200_000))]
    (root / "aln.fasta").write_bytes(b"".join(b">%s\n%s\n" % (name.encode(), row.tobytes())
                                             for name, row in zip(names, rows)))
    return root


@pytest.mark.parametrize("limit_kib", (600_000, 900_000))
def test_an_alignment_too_large_for_memory_exits_3_with_one_line(large_alignment, limit_kib):
    # The address-space limit is set in the child process only. The two limits run out
    # of memory in different places of reading the alignment.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LIMITED_SCRIPT, str(limit_kib), "likelihood",
                           "--tree", str(large_alignment / "tree.nwk"),
                           "--alignment", str(large_alignment / "aln.fasta")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == cli.EXIT_MODEL
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: out of memory")
    assert "Traceback" not in done.stderr


# Inputs for the argv property: "@name" stands for a file or directory under
# the module's input directory, and "@missing..." for a path that is not there.
ARGV_FILES = {
    "cherry.nwk": "(A:0.1,B:0.1);",
    "balanced.nwk": BALANCED,
    "binary.nwk": "(A[&model=B,a=0.2],B[&model=B,a=0.1]);",
    "mixed.nwk": "((A[&model=K3,a=0.1,b=0.2,c=0.3],B:0.1):0.1,C[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}]);",
    "zero.nwk": ZERO_CHERRY,
    "unbalanced_paren.nwk": "((A,B);",
    "leaf.nwk": "A;",
    "weight_above_one.nwk": "(A[&model=B,a=1.0000000000001],B[&model=B,a=0.1]);",
    "unnormalized_pi.nwk": "(A:0.1,B:0.1)[&pi={0.5,0.5,0.5,0.5}];",
    "dna2.fasta": ">A\nACGTACGT\n>B\nACGAACGA\n",
    "dna3.fasta": ">A\nACG\n>B\nACC\n>C\nTCG\n",
    "dna4.fasta": ">A\nACGTA\n>B\nACGTC\n>C\nAGGTA\n>D\nTCGTA\n",
    "binary.fasta": ">A\n0101\n>B\n0011\n",
    "other_taxa.fasta": ">A\nAC\n>X\nAC\n",
    "ragged.fasta": ">A\nACG\n>B\nAC\n",
    "gap.fasta": ">A\nA-\n>B\nAC\n",
}
ODD_PATHS = ("@missing", "@dir", "@latin1")
ARGV_INTS = st.sampled_from(["-1", "0", "1", "7", str(10**13), str(10**20), "x"])
ARGV_TREES = st.sampled_from([f"@{n}" for n in ARGV_FILES if n.endswith(".nwk")] + list(ODD_PATHS))
ARGV_FASTAS = st.sampled_from([f"@{n}" for n in ARGV_FILES if n.endswith(".fasta")] + list(ODD_PATHS))
ARGV_OUTS = st.sampled_from(["@out/run", "@missing_dir/run"])
ARGV_ENGINES = st.sampled_from(["classical", "quantum", "dual", "bogus"])


def _argv(command, required, optional=()):
    """argv for one subcommand: every required flag, and each optional one or not."""
    parts = [st.tuples(st.just(flag), values) for flag, values in required]
    parts += [st.one_of(st.just(()), st.tuples(st.just(flag), values)) for flag, values in optional]
    return st.tuples(*parts).map(lambda pairs: [command, *(token for pair in pairs for token in pair)])


# verify, the only command that may exit 1, is left out.
CLI_ARGV = st.one_of(
    _argv("simulate", [("--tree", ARGV_TREES), ("--sites", ARGV_INTS), ("--seed", ARGV_INTS),
                       ("--out", ARGV_OUTS)]),
    _argv("likelihood", [("--tree", ARGV_TREES), ("--alignment", ARGV_FASTAS)],
          [("--engine", st.one_of(ARGV_ENGINES, st.just("all"))), ("--out", ARGV_OUTS)]),
    _argv("optimize", [("--tree", ARGV_TREES), ("--alignment", ARGV_FASTAS),
                       ("--family", st.sampled_from(["JC", "K2", "K3", "B", "F", "X"])),
                       ("--seed", ARGV_INTS)],
          [("--engine", ARGV_ENGINES), ("--out", ARGV_OUTS)]),
)


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, text in ARGV_FILES.items():
        (root / name).write_text(text)
    (root / "dir").mkdir()
    (root / "out").mkdir()
    (root / "latin1").write_bytes(b">A\n\xe9\n")
    return root


class TestArgvExitCodes:
    @settings(max_examples=150)
    @given(argv=CLI_ARGV)
    @example(argv=["simulate", "--tree", "@balanced.nwk", "--sites", "5", "--seed", "-1",
                   "--out", "@out/run"])
    @example(argv=["simulate", "--tree", "@balanced.nwk", "--sites", str(10**13), "--seed", "1",
                   "--out", "@out/run"])
    @example(argv=["simulate", "--tree", "@balanced.nwk", "--sites", str(10**20), "--seed", "1",
                   "--out", "@out/run"])
    @example(argv=["simulate", "--tree", "@weight_above_one.nwk", "--sites", "5", "--seed", "1",
                   "--out", "@out/run"])
    def test_every_argv_gets_a_documented_exit_code(self, argv_inputs, argv):
        argv = [str(argv_inputs / token[1:]) if token.startswith("@") else token for token in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            assert exc.code == cli.EXIT_PARSE
        else:
            assert code in {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_MODEL, cli.EXIT_TAXA,
                            cli.EXIT_ZERO_LIKELIHOOD}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_exit_codes_are_the_exit_constants():
    sentence = re.search(r"Exit codes are stable API: (.*?)\.\s", README.read_text(encoding="utf-8"), re.DOTALL)
    codes = [int(code) for code in re.findall(r"`(\d+)`", sentence.group(1))]
    assert codes == sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))


def test_readme_python_names_are_in_their_modules():
    readme = README.read_text(encoding="utf-8")
    items = readme[readme.index("**From Python,**"):readme.index("## Layout")].split("\n- ")[1:]
    assert len(items) == 9
    for item in items:
        module, *names = re.findall(r"`([\w.]+)`", item)
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
