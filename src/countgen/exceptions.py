"""Shared exception types."""


class TapeExhausted(Exception):
    """A finite bit tape was asked for more bits than it holds."""


class EmptySlice(Exception):
    """The fixed-length slice being sampled or unranked is empty."""


class EmptyLanguage(Exception):
    """The structure has no elements at any size."""


class AmbiguityExceeded(Exception):
    """An observed multiplicity exceeds the declared bound."""


class CeilingExceeded(Exception):
    """A guarded quantity grew past its configured ceiling."""


class RankOutOfRange(Exception):
    """The requested rank exceeds the number of elements."""


class SizeGuard(Exception):
    """An exhaustive computation was refused because it is too large."""


class EpsilonInLanguage(Exception):
    """The grammar derives the empty word, which normal form cannot carry."""


class FormatError(Exception):
    """A specification file does not parse."""


class FrozenInstanceError(AttributeError):
    """A field of an immutable record was assigned or deleted."""
