"""Exception hierarchy shared across the package.

Every error the CLI maps to a process exit code lives here, so the mapping
in :mod:`qphylo.cli` stays a single dictionary.
"""

from __future__ import annotations


class QPhyloError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(QPhyloError):
    """Operands have incompatible dimensions."""


class ParseError(QPhyloError):
    """Malformed input text; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class NewickParseError(ParseError):
    pass


class FastaParseError(ParseError):
    pass


class ModelError(QPhyloError):
    """Invalid model parameters or model/alphabet mismatch."""


class NotUnistochasticError(ModelError):
    """No unitary with the requested Hadamard square was found within budget.

    This is a genuine mathematical possibility for doubly stochastic input,
    not only a search failure, so it is reported rather than approximated.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class TaxaMismatchError(QPhyloError):
    """Alignment taxa do not match the tree's leaves."""


class ZeroLikelihoodError(QPhyloError):
    """A site has likelihood exactly zero; carries the 1-based site index."""

    def __init__(self, site: int):
        super().__init__(f"site {site} has zero likelihood")
        self.site = site


class OptimizerError(QPhyloError):
    """Degenerate optimization problem (e.g. all-zero likelihood simplex)."""
