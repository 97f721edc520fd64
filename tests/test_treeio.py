import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qphylo.errors import FastaParseError, ModelError, NewickParseError, QPhyloError
from qphylo.models import ModelParams, jc_from_branch_length
from qphylo.treeio import (BINARY, DNA, Alignment, EvolveGate, SplitGate, compile_circuit,
                           emit_newick, parse_fasta, parse_newick)

BALANCED = "((A:0.1,B:0.1):0.05,(C:0.2,D:0.2):0.05);"

NEWICK_CHARS = "(),:;[]&={}AB01.e+- \t\r\n"
# Whole tokens, so that random joins spell out annotations and reach the parameter checks.
NEWICK_FRAGMENTS = ["(", ")", ",", ":", ";", "[&", "]", "{", "}", "model=", "JC", "K2", "F", "a=",
                    "t=", "pi=", "0.1", "-1", "A", "B", " ", "\t", "\r\n"]
NEWICK_LIKE = st.one_of(
    st.text(max_size=80),
    st.text(alphabet=NEWICK_CHARS, max_size=80),
    st.lists(st.sampled_from(NEWICK_FRAGMENTS), max_size=40).map("".join),
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

    @pytest.mark.parametrize("text, message", [
        ("(A:0.1,B:0.2", "expected ')' (at offset 12)"),
        ("(A:0.1,B:0.2) x", "expected ';' (at offset 15)"),
        ("(A:0.1,B:0.2);x", "trailing text after ';' (at offset 14)"),
        ("(A:,B:1);", "expected a number (at offset 3)"),
        ("(A[model=JC,a=0.1],B:1);", "comment must start with '[&' (at offset 2)"),
        ("(A[&model=JC,a=0.1,B:1);", "unterminated comment (at offset 2)"),
        ("(A[&model],B:1);", "annotation entry 'model' is not key=value (at offset 4)"),
        ("(A[&a=0.1,a=0.2],B:1);", "duplicate annotation key 'a' (at offset 4)"),
        ("(A[&pi={0.1,x}],B:1);", "annotation pi={0.1,x} is not a list of numbers (at offset 4)"),
        ("(A:1,:1);", "leaf without a name (at offset 5)"),
        ("(A:1,B:1:2);", "expected ')' (at offset 8)"),
        ("(A:1,B:1)[&a=0.1];", "root annotation may only set pi={...} (at offset 0)"),
        # Leading whitespace counts toward a node's offset.
        ("( A:1, (B:1,C:1,D:1):1);", "non-binary node with 3 children (at offset 6)"),
        # A shape error wins over an earlier bad annotation.
        ("(A[&model=XX],(B:1,C:1,D:1):1);", "non-binary node with 3 children (at offset 14)"),
    ])
    def test_every_reader_error_message_is_exact(self, text, message):
        with pytest.raises(NewickParseError) as err:
            parse_newick(text)
        assert str(err.value) == message

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

    @pytest.mark.parametrize("text, message", [
        ("(A[&model=JC,t=inf],B:1);", "annotation t= must be a number, got 'inf' (at offset 1)"),
        ("(A[&model=JC,a=nan],B:1);", "annotation a= must be a number, got 'nan' (at offset 1)"),
        ("(A[&model=JC,t=1_0],B:1);", "annotation t= must be a number, got '1_0' (at offset 1)"),
        ("(A:1,B[&model=JC,a=0.1_0]);", "annotation a= must be a number, got '0.1_0' (at offset 5)"),
        ("(A[&model=K2,a=0.1,b=0x1],B:1);", "annotation b= must be a number, got '0x1' (at offset 1)"),
        ("(A[&model=F,a=0.5,pi={0.25,0.25,0.25,0.2_5}],B:1);",
         "annotation pi={0.25,0.25,0.25,0.2_5} is not a list of numbers (at offset 4)"),
        ("(A:1,B:1)[&pi={0.5,0.5,0,infinity}];",
         "annotation pi={0.5,0.5,0,infinity} is not a list of numbers (at offset 11)"),
    ])
    def test_annotation_numbers_use_the_branch_length_grammar(self, text, message):
        # float() alone would read these as inf, nan, 10, 0.1 and 0.25.
        with pytest.raises(NewickParseError) as err:
            parse_newick(text)
        assert str(err.value) == message

    def test_annotation_numbers_allow_what_a_branch_length_allows(self):
        tree = parse_newick("(A[&model=JC,a= +.1e0 ],B[&model=F,a=1E-1,pi={ 0.1, 0.2 ,.3,4e-1}]);")
        a, b = tree.root.children
        assert a.params == ModelParams.jc(0.1)
        assert b.params == ModelParams.felsenstein(0.1, (0.1, 0.2, 0.3, 0.4))

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
        assert tree.pi is tree.root_pi and not tree.pi.flags.writeable

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
        assert tree.root_pi is None
        assert tree.pi is tree.pi and not tree.pi.flags.writeable

    def test_edge_params_follow_pre_order(self):
        tree = parse_newick("((A[&model=JC,a=0.1],B[&model=JC,a=0.2])[&model=JC,a=0.3],"
                            "C[&model=JC,a=0.25]);")
        assert tree.edge_params == tuple(node.params for node in tree.nodes[1:])
        assert [params.a for params in tree.edge_params] == [0.3, 0.1, 0.2, 0.25]

    def test_mixed_state_counts_rejected(self):
        with pytest.raises(ModelError, match="mix"):
            parse_newick("(A[&model=B,a=0.1],B:0.2);")

    @pytest.mark.parametrize("annotation, extra", [
        ("[&model=JC,a=0.1,b=0.3]", "['b']"),
        ("[&model=K2,a=0.1,b=0.2,c=0.3]", "['c']"),
        ("[&model=F,a=0.5,b=0.2,pi={0.1,0.2,0.3,0.4}]", "['b']"),
    ])
    def test_key_the_family_does_not_take_is_refused(self, annotation, extra):
        family = annotation.split(",")[0].split("=")[1]
        with pytest.raises(NewickParseError) as err:
            parse_newick(f"(A:0.1,B{annotation});")
        assert str(err.value) == f"model {family} does not take {extra} (at offset 7)"
        assert err.value.offset == 7

    @pytest.mark.parametrize("text", [
        "(A[&model=JC,t=0.1],B[&model=JC,a=0.1]);",
        "(A[&model=K2,a=0.1,b=0.2],B:0.1);",
        "(A[&model=K3,a=0.1,b=0.2,c=0.3],B:0.1);",
        "(A[&model=B,t=0.1],B[&model=B,a=0.1]);",
        "(A[&model=F,a=0.5,pi={0.1,0.2,0.3,0.4}],B:0.1);",
    ], ids=["JC", "K2", "K3", "B", "F"])
    def test_every_key_the_family_takes_is_accepted(self, text):
        assert parse_newick(text).n_leaves == 2

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

    @pytest.mark.parametrize("text", [">a\nAC01\n>b\nACGT\n", ">a\nAC\n>b\n01\n"])
    def test_dna_and_binary_mix_is_named(self, text):
        # Every character is in one of the alphabets, so there is no unsupported one to list.
        with pytest.raises(FastaParseError) as err:
            parse_fasta(text)
        assert str(err.value) == "records mix DNA (A/C/G/T) and binary (0/1) characters"

    @pytest.mark.parametrize("data", [
        np.array([[0.5, 1.9], [2.2, 3.0]]),
        np.array([[0.0, np.nan], [1.0, 2.0]]),
        np.array([["A", "C"], ["G", "T"]]),
        np.array([[0, 1], [2, 3]], dtype=object),
    ], ids=["fractional", "nan", "strings", "objects"])
    def test_non_integer_data_refused(self, data):
        with pytest.raises(FastaParseError, match=r"^character index is not an integer$"):
            Alignment(taxa=("A", "B"), data=data, alphabet=DNA)

    @pytest.mark.parametrize("data, want", [
        (np.array([[1.0, 0.0], [3.0, 2.0]]), [[1, 0], [3, 2]]),
        (np.array([[True, False], [False, True]]), [[1, 0], [0, 1]]),
        ([[], []], [[], []]),
    ], ids=["integral_floats", "bools", "empty"])
    def test_integer_valued_data_accepted(self, data, want):
        aln = Alignment(taxa=("A", "B"), data=data, alphabet=DNA)
        assert aln.data.dtype == np.int64 and aln.data.tolist() == want

    def test_infinite_data_is_out_of_range(self):
        with pytest.raises(FastaParseError, match="out of alphabet range"):
            Alignment(taxa=("A", "B"), data=np.array([[np.inf, 0.0], [1.0, 2.0]]), alphabet=DNA)

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

    def test_duplicate_taxa_rejected_at_construction(self):
        # A likelihood call would read one row per name and drop the other A row unseen.
        data = np.zeros((4, 3), dtype=int)
        with pytest.raises(FastaParseError, match=r"^duplicate taxa \['A', 'B'\]$"):
            Alignment(taxa=("A", "B", "A", "B"), data=data, alphabet=DNA)

    def test_taxon_rows_are_mapped_once(self):
        aln = parse_fasta(">y\nAC\n>x\nGT\n")
        assert aln.row_of == {"y": 0, "x": 1}

    def test_empty_input_rejected(self):
        with pytest.raises(FastaParseError):
            parse_fasta("\n\n")

    @given(st.sampled_from([(BINARY, "01"), (DNA, "ACGTacgt")]).flatmap(
        lambda alphabet: st.tuples(st.just(alphabet[0]), st.integers(1, 40).flatmap(
            lambda n: st.lists(st.text(alphabet[1], min_size=n, max_size=n), min_size=1, max_size=5)))))
    def test_one_lookup_matches_the_per_character_mapping(self, case):
        alphabet, seqs = case
        aln = parse_fasta("".join(f">t{i}\n{seq}\n" for i, seq in enumerate(seqs)))
        want = np.array([[alphabet.symbols.index(ch.upper()) for ch in seq] for seq in seqs],
                        dtype=np.int64)
        assert aln.alphabet is alphabet
        assert aln.data.dtype == want.dtype and aln.data.shape == want.shape
        assert aln.data.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("alphabet, n_sites", [(DNA, 40), (BINARY, 9), (DNA, 0)])
    def test_indicator_block_is_the_read_only_one_hot_of_the_patterns(self, alphabet, n_sites):
        data = np.random.default_rng(3).integers(0, alphabet.n_states, size=(3, n_sites))
        aln = Alignment(taxa=("x", "y", "z"), data=data, alphabet=alphabet)
        patterns = aln.site_patterns()[0]
        block = aln.indicators
        assert block.shape == (3, alphabet.n_states, len(patterns))
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert not block.flags.writeable
        want = np.eye(alphabet.n_states)[patterns.T].transpose(0, 2, 1)
        assert block.tobytes() == want.tobytes()


class TestCompileCircuit:
    def test_cherry_schedule(self):
        tree = parse_newick("(A:0.1,B:0.2);")
        gates = compile_circuit(tree)
        assert isinstance(gates[0], SplitGate) and gates[0].slot == 1
        assert isinstance(gates[1], EvolveGate) and gates[1].slot == 1
        assert isinstance(gates[2], EvolveGate) and gates[2].slot == 2
        assert len(gates) == 3

    def test_four_taxa_balanced(self):
        gates = compile_circuit(parse_newick(BALANCED))
        splits = [g.slot for g in gates if isinstance(g, SplitGate)]
        evolves = [g for g in gates if isinstance(g, EvolveGate)]
        assert splits == [1, 1, 3]
        assert len(evolves) == 6

    def test_gate_counts_scale_with_leaves(self):
        text = "((((A:1,B:1):1,C:1):1,D:1):1,(E:1,(F:1,G:1):1):1);"
        tree = parse_newick(text)
        gates, s = compile_circuit(tree), tree.n_leaves
        assert s == 7
        assert sum(isinstance(g, SplitGate) for g in gates) == s - 1
        assert sum(isinstance(g, EvolveGate) for g in gates) == 2 * s - 2

    def test_topology_sorted(self):
        # No gate touches a slot before a split creates it, and the last
        # split leaves one slot per leaf.
        width = 1
        for gate in compile_circuit(parse_newick(BALANCED)):
            assert 1 <= gate.slot <= width
            width += isinstance(gate, SplitGate)
        assert width == 4
