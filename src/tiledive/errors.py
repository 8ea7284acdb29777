"""Exception hierarchy shared across the package."""


class TilediveError(Exception):
    """Base class for all package-specific errors."""


class InputError(TilediveError, ValueError):
    """Malformed or out-of-range input: the CLI's exit status 2."""


class InputFormatError(InputError):
    """A dataset or tile-set file could not be parsed."""


class OutOfBounds(InputError):
    """A row or column id falls outside the dataset dimensions."""


class DimMismatch(InputError):
    """Two objects with incompatible (n, m) dimensions were combined."""


class ConflictingExactTiles(TilediveError):
    """The same entry is forced to both 0 and 1 by exact tiles."""


class InfeasibleTile(TilediveError):
    """A tile's target frequency is unattainable given settled entries."""


class NoConvergence(TilediveError):
    """The Newton fit did not reach the residual tolerance in time."""


class ConsistencyError(TilediveError):
    """The joint model over all given tile sets could not be fitted."""


class InfiniteDivergence(TilediveError):
    """KL divergence is infinite: a deterministic entry disagrees."""


class NotExact(TilediveError):
    """An operation restricted to exact tiles received a noisy one."""


class InfiniteSurprise(TilediveError):
    """A candidate frequency disagrees with a deterministic model entry."""
