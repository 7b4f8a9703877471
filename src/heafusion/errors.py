"""Exception hierarchy shared across the package.

Every error that an option, a config value or an input file can cause
derives from :class:`HeafusionError`, so callers (and the CLI) map failures
to exit codes without string matching. The range errors of the splitters,
`enumerate_combinations` and the distance matrices also derive from
ValueError, which they raised before. A ValueError or TypeError that
library code still raises guards an invariant or argument that the CLI's
checked input always meets: the CLI does not catch it, since reaching it
is a bug.
"""

from __future__ import annotations


class HeafusionError(Exception):
    """Base class for all library errors."""


class ConfigError(HeafusionError):
    """Invalid parameter or configuration value."""


class DataError(HeafusionError):
    """Invalid or inconsistent input data."""


class NumericError(HeafusionError):
    """Arithmetic failure in the belief algebra."""


class TotalConflict(NumericError):
    """Dempster combination of fully contradictory certain evidence."""


class GammaOutOfRange(ConfigError):
    """Reliability discount factor outside [0, 1]."""


class AlphaOutOfRange(ConfigError):
    """Dataset-evidence uncertainty parameter outside (0, 1)."""


class BetaOutOfRange(ConfigError):
    """Expert-evidence confidence parameter outside (0, 1)."""


class ParseError(DataError):
    """Malformed input file row."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class EmptyDataset(DataError):
    """Dataset file contains no alloys."""


class KTooLarge(ConfigError):
    """Requested combination size exceeds the universe size."""


class CandidateInTraining(DataError):
    """Prediction asked for an alloy that is already labeled."""


class DegenerateDataset(DataError):
    """Operation requires both classes present in the dataset."""


class ElementAbsent(DataError):
    """Requested element does not occur in the dataset."""


class FractionOutOfRange(ConfigError, ValueError):
    """Split fraction outside (0, 1)."""


class FoldsOutOfRange(ConfigError, ValueError):
    """Fold count below 2 or above the number of rows."""


class TooFewElements(ConfigError, ValueError):
    """Element list or combination size below the two an alloy needs."""


class TooFewAlloys(DataError, ValueError):
    """Dataset with fewer alloys than the operation needs."""


class FractionDegenerate(ConfigError):
    """Fractional split leaves the training or test side empty."""


class LengthMismatch(DataError):
    """Paired sequences differ in length (labels and predictions, or labels
    and alloy rows), or labels and predictions are empty."""


class SingleClass(DataError):
    """ROC analysis requires both classes among the labels."""


class MatrixMalformed(DataError):
    """Distance matrix is not square/symmetric/zero-diagonal."""


class EmptySourceList(ConfigError):
    """Fusion invoked with no evidence sources."""
