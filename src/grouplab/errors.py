"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GroupLabError",
    "MalformedSpec",
    "InconsistentPresentation",
    "BudgetExceeded",
    "ForeignElement",
    "EmptySequence",
    "MismatchedParent",
    "NotAPGroup",
    "NotNormal",
    "NotSolvable",
    "NonElementaryQuotient",
    "MismatchedAlgebra",
    "ActionNotWellDefined",
    "EvenCharacteristic",
    "NotInvolution",
    "TrivialImage",
    "HypothesisNotMet",
    "UnknownCheck",
    "FixtureSyntaxError",
    "UnresolvedReference",
    "DuplicateName",
]


class GroupLabError(Exception):
    """Base class for every error raised by this package."""


class MalformedSpec(GroupLabError):
    """A group, automorphism, or action description violates its grammar."""


class InconsistentPresentation(GroupLabError):
    """A power-commutator presentation failed the associativity check."""


class BudgetExceeded(GroupLabError):
    """An enumeration, rewriting step or exhaustive scan exceeded its budget."""


class ForeignElement(GroupLabError):
    """An element was used with a group it does not belong to."""


class EmptySequence(GroupLabError):
    """A commutator or product was requested over an empty sequence."""


class MismatchedParent(GroupLabError):
    """Two subgroups of different parent groups were combined."""


class NotAPGroup(GroupLabError):
    """The operation needs a group of prime-power order."""


class NotNormal(GroupLabError):
    """The subgroup is not normal in its parent."""


class NotSolvable(GroupLabError):
    """The operation needs a solvable group."""


class NonElementaryQuotient(GroupLabError):
    """A graded component is not elementary abelian of the stated exponent."""


class MismatchedAlgebra(GroupLabError):
    """Two Lie elements of different algebras were combined."""


class ActionNotWellDefined(GroupLabError):
    """An automorphism does not preserve the series it should act along."""


class EvenCharacteristic(GroupLabError):
    """The eigenspace split needs odd characteristic."""


class NotInvolution(GroupLabError):
    """The supplied automorphism does not square to the identity."""


class TrivialImage(GroupLabError):
    """The element has trivial image in every graded component."""


class HypothesisNotMet(GroupLabError):
    """A check's hypothesis fails on the given input; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownCheck(GroupLabError):
    """A requested check name is not in the catalog."""


class FixtureSyntaxError(GroupLabError):
    """A fixture file violates the line grammar; carries a location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class UnresolvedReference(FixtureSyntaxError):
    """A fixture statement refers to a name that is not defined."""


class DuplicateName(FixtureSyntaxError):
    """Two fixture statements claim the same name."""
