"""Exception types shared across the package."""


class PmFusionError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PmFusionError, ValueError):
    """A numeric argument lies outside the mathematical domain of the operation."""


class OutOfDomainError(PmFusionError, ValueError):
    """A location or day falls outside the region/period covered by the data."""


class NotPositiveDefiniteError(PmFusionError, ValueError):
    """A covariance matrix failed Cholesky factorization even at maximum jitter."""


class InsufficientDataError(PmFusionError, ValueError):
    """Model fitting was requested with too little usable data."""


class TooFewRecordsError(PmFusionError, ValueError):
    """A fold plan was requested for fewer records than folds."""


class NoInputsError(PmFusionError, ValueError):
    """A mixture prediction was requested with no available component."""


class EmptyInputError(PmFusionError, ValueError):
    """An evaluation was requested over an empty collection of pairs."""


class InputFileError(PmFusionError, OSError):
    """An input file could not be opened for reading; the message names it."""


class ParseError(PmFusionError, ValueError):
    """A CSV cell could not be parsed; message carries file and line number."""


class StageError(PmFusionError, RuntimeError):
    """A pipeline stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, err: BaseException):
        super().__init__(f"stage '{stage}' failed: {err}")
        self.stage = stage
        self.original = err


class OverwriteError(PmFusionError, FileExistsError):
    """An output directory already holds a completed run for this config."""


class SchemaError(PmFusionError, ValueError):
    """Input breaks the expected structure: a header, a key, a join or a field."""
