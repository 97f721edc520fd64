"""Exception hierarchy shared across the package.

Every error the CLI maps to a process exit code lives here. ``qphylo.cli.main``
maps them with one ``except`` clause per exit code, a subclass before its
base class. Exit 6 is retired with the optimizer error it mapped: every EM
start lies strictly inside its family's region, where every site has
positive likelihood, so no fit can be degenerate. The code will not be reused.
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


class TaxaMismatchError(QPhyloError):
    """Alignment taxa do not match the tree's leaves."""


class ZeroLikelihoodError(QPhyloError):
    """A site has likelihood exactly zero; carries the 1-based site index."""

    def __init__(self, site: int):
        super().__init__(f"site {site} has zero likelihood")
        self.site = site

