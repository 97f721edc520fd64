"""Quantum-circuit simulation of phylogenetic pattern tensors and likelihoods.

Diagonal density matrices evolve through operator-sum channels, splitting
gates, and quantum-walk dilations, reproducing the classical Markov-chain
pattern distributions of standard substitution models; tree likelihoods are
evaluated by a quantum pruning circuit and its state-picture dual, verified
against the classical pruning recursion throughout.

The package root re-exports nothing: import from the submodules, as in
``from qphylo.engine import alignment_loglik``.
"""

__version__ = "0.1.0"
