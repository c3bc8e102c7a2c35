"""Exception hierarchy shared across the package."""


class PosetLabError(Exception):
    """Base class for all package errors."""


class MalformedInput(PosetLabError):
    """Input text is not JSON, or a field has the wrong shape or type."""


class CycleDetected(PosetLabError):
    """Requested relations are not acyclic."""


class IndexOutOfRange(PosetLabError):
    """An element id or word index is outside its valid range."""


class TooLarge(PosetLabError):
    """Instance exceeds a hard size guard or a configured state budget."""


class BadChain(PosetLabError):
    """Marked elements are not chain-ordered as required."""


class BadParams(PosetLabError):
    """Family parameters outside the documented range."""


class HypothesesNotMet(PosetLabError):
    """A statement's positivity/vanishing hypotheses fail on this instance."""


class NoPivot(PosetLabError):
    """An injection could not find its pivot element (impossible under the
    stated preconditions; raised instead of silently producing garbage)."""


class CaseExhaustion(PosetLabError):
    """Case dispatch of an injection fell through (impossible under the
    stated preconditions)."""


class DegenerateSlice(PosetLabError):
    """The requested polytope slice is empty."""
