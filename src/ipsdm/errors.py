"""Exception types shared across the pipeline stages."""


class IpsdmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IpsdmError):
    """Bad input data or configuration; maps to CLI exit code 2."""


class NumericError(IpsdmError):
    """Numeric failure during training; maps to CLI exit code 3."""


# corpus
class MissingColumn(InputError):
    pass


class MalformedCsv(InputError):
    pass


class DegenerateSplit(InputError):
    pass


# tokenizer
class VocabTooSmall(InputError):
    pass


class UnknownId(InputError):
    pass


# balance
class NothingToBalance(IpsdmError):
    """All classes already match the majority count; nothing to synthesize."""


class TooFewSamples(InputError):
    pass


# model
class AllMasked(InputError):
    pass


class SequenceLengthMismatch(InputError):
    pass


class StaleCache(IpsdmError):
    """Backward called with a cache produced by a different parameter
    version, or with one an earlier backward consumed."""


# optim
class ShapeMismatch(InputError):
    pass


class NonFiniteGradient(NumericError):
    def __init__(self, parameter_name: str):
        super().__init__(f"non-finite gradient in parameter {parameter_name!r}")
        self.parameter_name = parameter_name


# metrics
class NonFiniteInput(InputError):
    pass


class LengthMismatch(InputError):
    pass


class EmptyMatrix(InputError):
    pass


# trainer
class DivergedLoss(NumericError):
    """Training loss became NaN/Inf; carries the last good checkpoint."""

    def __init__(self, message: str, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint


class EmptySplit(InputError):
    pass


class VocabularyMismatch(InputError):
    pass


class VersionMismatch(InputError):
    pass


class CorruptFile(InputError):
    pass


# cli
class ConfigError(InputError):
    pass


class UsageError(IpsdmError):
    """Bad command line; maps to CLI exit code 64."""
