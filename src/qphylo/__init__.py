"""Quantum-circuit simulation of phylogenetic pattern tensors and likelihoods.

Diagonal density matrices evolve through operator-sum channels, splitting
gates, and quantum-walk dilations, reproducing the classical Markov-chain
pattern distributions of standard substitution models; tree likelihoods are
evaluated by a quantum pruning circuit and its state-picture dual, verified
against the classical pruning recursion throughout.
"""

from .channels import (DiagonalDensity, KrausChannel, apply_channel, collective_diagonalizer,
                       control_not, diagonalizer, diagonalizer_fourier, split, split_at)
from .engine import ENGINES, SiteLikelihoodReport, alignment_loglik, simulate_tree
from .errors import (FastaParseError, ModelError, NewickParseError, OptimizerError, QPhyloError,
                     ShapeMismatchError, TaxaMismatchError, ZeroLikelihoodError)
from .linalg import ProbabilityTensor, adjoint_action, kron, partial_trace
from .models import (Dilation, ModelParams, binary_dilation, binary_from_branch_length,
                     flip_weights, group_channel, jc_from_branch_length, markov, qw_dilation)
from .optimize import (OptimizationProblem, OptimizationResult, maximize_loglik,
                       tree_with_edge_params, tree_with_shared_params)
from .qwalk import (WalkConfig, closed_form_two_taxon, coin_distribution, evolve_taxa_qw,
                    qw_step_map, walk_unitary)
from .treeio import (Alignment, EvolveGate, PhyloTree, SplitGate, compile_circuit, emit_newick,
                     parse_fasta, parse_newick)

__version__ = "0.1.0"
