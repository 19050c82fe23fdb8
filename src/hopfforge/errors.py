"""Exception hierarchy.

Three families matter for the CLI exit-code contract:

* ``UsageError`` and parse/schema problems -> exit 2
* mathematical check failures (reported, not raised) -> exit 1
* structural inconsistencies discovered mid-computation -> exit 3
"""

from contextlib import contextmanager


class HopfForgeError(Exception):
    """Base class for everything raised on purpose by this package."""


class UsageError(HopfForgeError):
    """Bad command line or unknown fixture name."""


class ParseError(UsageError):
    """A value in an input document does not parse (e.g. rational "1/0")."""


class SchemaError(UsageError):
    """An input document has the wrong shape; message carries the JSON path."""


class DimensionMismatch(HopfForgeError):
    """Composed or compared maps whose spaces do not line up."""


class DimensionCapExceeded(UsageError):
    """Object dimension above HOPFFORGE_MAX_DIM (default 512), or a matrix,
    label list or composite_map stage too large to materialise."""


class InvalidGroup(HopfForgeError):
    """Multiplication table is not a group."""


class InvalidCrossedModule(HopfForgeError):
    """Boundary/action data violates a crossed-module axiom."""


class NotAProjection(HopfForgeError):
    """proj . incl is not the identity, or a leg fails the morphism laws."""


class NonInvertibleAntipode(HopfForgeError):
    """Antipode matrix is singular; the object is rejected at construction."""


class NonInvertibleBraiding(HopfForgeError):
    """A Yetter-Drinfeld braiding matrix came out singular."""


class CompatibilityFailed(HopfForgeError):
    """A requested structure upgrade fails its compatibility condition."""


class ClosureFailure(HopfForgeError):
    """A map does not land in the claimed subspace (internal inconsistency)."""


class IsoFailure(HopfForgeError):
    """Mutually-inverse maps failed to compose to the identity."""


class HypothesisFailed(HopfForgeError):
    """A theorem's hypothesis does not hold for the given input."""


class NestingError(HopfForgeError):
    """Category nesting deeper than the supported two levels."""


@contextmanager
def closure_is_hypothesis(hint: str):
    """Re-raise a ClosureFailure as HypothesisFailed (exit 1), the hint
    appended: where a theorem guarantees a closure, one that fails means
    the input breaks the theorem's hypothesis.  Also a decorator."""
    try:
        yield
    except ClosureFailure as e:
        raise HypothesisFailed(f"{e} (hint: {hint})") from e
