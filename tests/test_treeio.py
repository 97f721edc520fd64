import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qphylo.errors import FastaParseError, ModelError, NewickParseError, QPhyloError
from qphylo.models import ModelParams, jc_from_branch_length
from qphylo.treeio import (BINARY, DNA, Alignment, EvolveGate, SplitGate, compile_circuit,
                           emit_newick, parse_fasta, parse_newick)

BALANCED = "((A:0.1,B:0.1):0.05,(C:0.2,D:0.2):0.05);"

NEWICK_CHARS = "(),:;[]&={}AB01.e+- \n"
NEWICK_LIKE = st.one_of(
    st.text(max_size=80),
    st.text(alphabet=NEWICK_CHARS, max_size=80),
    st.tuples(st.integers(0, 3000), st.text(alphabet=NEWICK_CHARS, max_size=40),
              st.integers(0, 3000)).map(lambda t: "(" * t[0] + t[1] + ")" * t[2]),
    # Deep well-formed nesting; duplicate B labels make it fail after parsing.
    st.integers(1, 3000).map(lambda d: "(" * d + "A:1" + ",B:1):1" * d + ";"),
)
FASTA_LIKE = st.one_of(st.text(max_size=80), st.text(alphabet=">ACGTacgt01 -x\n", max_size=80))


class TestParseNewick:
    def test_four_leaf_balanced(self):
        tree = parse_newick(BALANCED)
        assert tree.leaf_names == ("A", "B", "C", "D")
        assert tree.n_states == 4
        left, right = tree.root.children
        assert left.params == jc_from_branch_length(0.05)
        assert left.children[0].name == "A"

    def test_cherry(self):
        tree = parse_newick("(A:0.1,B:0.2);")
        assert tree.leaf_names == ("A", "B")

    def test_non_binary_rejected(self):
        with pytest.raises(NewickParseError, match="non-binary"):
            parse_newick("((A,B,C));")

    def test_duplicate_leaves_rejected(self):
        with pytest.raises(NewickParseError, match="duplicate"):
            parse_newick("(A:0.1,A:0.1);")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(NewickParseError) as err:
            parse_newick("(A:0.1,B:0.2")
        assert err.value.offset is not None

    @pytest.mark.parametrize("text", ["(A:-0.1,B:0.1);", "(A[&model=JC,t=-0.1],B:0.1);"],
                             ids=["bare_length", "t_annotation"])
    def test_negative_branch_length_is_parse_error_at_its_edge(self, text):
        with pytest.raises(NewickParseError, match="invalid model parameters: branch length -0.1") as err:
            parse_newick(text)
        assert err.value.offset == 1

    @pytest.mark.parametrize("text", [
        "(A:0.1,B[&model=JC,a=x]);",
        "(A:0.1,B[&model=JC,t=x]);",
        "(A:0.1,B[&model=JC,a={0.1}]);",
        "(A:0.1,B[&model=F,a=0.5,pi={0.1,0.2,0.3,x}]);",
        "(A:0.1,B[&model=F,a=0.5,pi=x]);",
        "(A:0.1,B:0.1)[&pi=x];",
    ])
    def test_non_numeric_annotation_carries_offset(self, text):
        with pytest.raises(NewickParseError) as err:
            parse_newick(text)
        assert err.value.offset is not None

    def test_single_leaf_rejected(self):
        with pytest.raises(NewickParseError, match="two leaves"):
            parse_newick("A;")

    def test_unnormalized_root_distribution_is_model_error(self):
        with pytest.raises(ModelError, match="root distribution"):
            parse_newick("(A:0.1,B:0.1)[&pi={0.5,0.5,0.5,0.5}];")

    @given(NEWICK_LIKE)
    @example("(" * 3000 + "A")
    def test_arbitrary_text_raises_only_package_errors(self, text):
        try:
            parse_newick(text)
        except QPhyloError:
            pass

    def test_missing_edge_parameters(self):
        with pytest.raises(NewickParseError, match="branch length or a model"):
            parse_newick("(A,B:0.1);")

    def test_model_annotations(self):
        tree = parse_newick("(A[&model=K3,a=0.1,b=0.2,c=0.3],"
                            "B[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}]);")
        a, b = tree.root.children
        assert a.params == ModelParams.k3(0.1, 0.2, 0.3)
        assert b.params.family == "F"
        assert np.array_equal(b.params.pi, [0.1, 0.2, 0.3, 0.4])

    def test_f_edges_compare_by_value(self):
        text = "((A[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}],B:0.1):0.2,C:0.1);"
        assert parse_newick(text).root == parse_newick(text).root
        assert parse_newick(text) == parse_newick(text)
        assert parse_newick(text).root != parse_newick(text.replace("0.3,0.4", "0.4,0.3")).root

    def test_annotation_with_branch_length_map(self):
        tree = parse_newick("(A[&model=B,t=0.5],B[&model=B,a=0.25]);")
        a, b = tree.root.children
        assert a.params.family == "B"
        assert a.params.a == pytest.approx(0.5 * (1 - np.exp(-1.0)))
        assert b.params == ModelParams.binary(0.25)

    def test_root_stationary_distribution(self):
        tree = parse_newick("(A:0.1,B:0.1)[&pi={0.1,0.2,0.3,0.4}];")
        assert np.array_equal(tree.pi, [0.1, 0.2, 0.3, 0.4])

    def test_trees_with_root_distribution_compare_and_hash_by_value(self):
        text = "(A:0.1,B:0.1)[&pi={0.1,0.2,0.3,0.4}];"
        assert parse_newick(text) == parse_newick(text)
        assert hash(parse_newick(text)) == hash(parse_newick(text))
        assert parse_newick(text) != parse_newick(text.replace("0.3,0.4", "0.4,0.3"))
        assert parse_newick(text) != parse_newick("(A:0.1,B:0.1);")
        assert parse_newick("(A:0.1,B:0.1);") != parse_newick(text)

    def test_uniform_default_root(self):
        tree = parse_newick("(A:0.1,B:0.1);")
        assert np.array_equal(tree.pi, np.full(4, 0.25))

    def test_mixed_state_counts_rejected(self):
        with pytest.raises(ModelError, match="mix"):
            parse_newick("(A[&model=B,a=0.1],B:0.2);")

    def test_comment_placement_before_length(self):
        tree = parse_newick("(A[&model=JC,a=0.05]:0.7,B:0.1);")
        assert tree.root.children[0].params == ModelParams.jc(0.05)


class TestEmitNewick:
    def test_roundtrip_bare_lengths(self):
        assert emit_newick(parse_newick(BALANCED)) == BALANCED

    def test_roundtrip_annotations(self):
        text = ("(A[&model=K3,a=0.1,b=0.2,c=0.3],B:0.4[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}])"
                "[&pi={0.25,0.25,0.25,0.25}];")
        assert emit_newick(parse_newick(text)) == text

    def test_parse_emit_fixed_point(self):
        text = emit_newick(parse_newick("( A :0.1, (B:0.2,C:0.3):0.1 );"))
        assert emit_newick(parse_newick(text)) == text


class TestParseFasta:
    def test_two_records(self):
        aln = parse_fasta(">x\nACGT\n>y\nACGT\n")
        assert aln.taxa == ("x", "y")
        assert aln.n_sites == 4
        assert aln.alphabet is DNA
        assert np.array_equal(aln.data[0], [0, 1, 2, 3])

    def test_ragged_rejected(self):
        with pytest.raises(FastaParseError, match="unequal"):
            parse_fasta(">x\nACGT\n>y\nACG\n")

    def test_lowercase_normalized(self):
        aln = parse_fasta(">x\nacgt\n>y\nACGT\n")
        assert aln.sequence("x") == "ACGT"

    def test_gap_rejected(self):
        with pytest.raises(FastaParseError, match="unsupported"):
            parse_fasta(">x\nAC-T\n")

    def test_binary_alphabet_detected(self):
        aln = parse_fasta(">x\n0110\n>y\n1010\n")
        assert aln.alphabet is BINARY
        assert np.array_equal(aln.data[0], [0, 1, 1, 0])

    def test_multiline_sequences(self):
        aln = parse_fasta(">x\nAC\nGT\n>y\nAC\nGT\n")
        assert aln.n_sites == 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(FastaParseError, match="duplicate"):
            parse_fasta(">x\nAC\n>x\nGT\n")

    def test_empty_input_rejected(self):
        with pytest.raises(FastaParseError):
            parse_fasta("\n\n")

    @given(FASTA_LIKE)
    def test_arbitrary_text_raises_only_package_errors(self, text):
        try:
            parse_fasta(text)
        except QPhyloError:
            pass

    def test_site_patterns_collapse(self):
        aln = parse_fasta(">x\nAAC\n>y\nGGC\n")
        patterns, counts, inverse = aln.site_patterns()
        assert patterns.shape == (2, 2)
        assert sorted(counts.tolist()) == [1, 2]
        assert len(inverse) == 3

    def test_site_patterns_are_computed_once_and_read_only(self, monkeypatch):
        aln = parse_fasta(">x\nAAC\n>y\nGGC\n")
        monkeypatch.setattr(np, "unique", None)  # a second compression would fail
        first, second = aln.site_patterns(), aln.site_patterns()
        assert all(a is b for a, b in zip(first, second))
        assert not any(array.flags.writeable for array in first)
        assert np.array_equal(first[0][first[2]], aln.data.T)


class TestCompileCircuit:
    def test_cherry_schedule(self):
        tree = parse_newick("(A:0.1,B:0.2);")
        gates = compile_circuit(tree).gates
        assert isinstance(gates[0], SplitGate) and gates[0].slot == 1
        assert isinstance(gates[1], EvolveGate) and gates[1].slot == 1 and gates[1].edge == "A"
        assert isinstance(gates[2], EvolveGate) and gates[2].slot == 2 and gates[2].edge == "B"
        assert len(gates) == 3

    def test_four_taxa_balanced(self):
        schedule = compile_circuit(parse_newick(BALANCED))
        splits = [g.slot for g in schedule.gates if isinstance(g, SplitGate)]
        evolves = [g for g in schedule.gates if isinstance(g, EvolveGate)]
        assert splits == [1, 1, 3]
        assert len(evolves) == 6

    def test_gate_counts_scale_with_leaves(self):
        text = "((((A:1,B:1):1,C:1):1,D:1):1,(E:1,(F:1,G:1):1):1);"
        schedule = compile_circuit(parse_newick(text))
        s = schedule.n_leaves
        assert s == 7
        assert sum(isinstance(g, SplitGate) for g in schedule.gates) == s - 1
        assert sum(isinstance(g, EvolveGate) for g in schedule.gates) == 2 * s - 2

    def test_topology_sorted(self):
        schedule = compile_circuit(parse_newick(BALANCED))
        schedule.validate()  # raises if any gate touches a slot early
