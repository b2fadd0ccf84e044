"""Exception taxonomy for the whole package.

Two families matter to callers. ``DataError`` covers everything caused by
bad input data or on-disk artifacts (the command line maps these to exit
code 3). ``NumericError`` covers violated numerical preconditions and
degenerate linear algebra (exit code 4). Everything derives from
``SetfuseError`` so library users can catch one base class.
"""


class SetfuseError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SetfuseError):
    """Input data, manifest, or stored-model problem."""


class NumericError(SetfuseError):
    """Numerical precondition violated or degenerate computation."""


# --- numeric family ---------------------------------------------------------

class NonSymmetric(NumericError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NonFinite(NumericError):
    """NaN or Inf encountered where finite values are required."""


class NotPositiveDefinite(NumericError):
    """Matrix expected to be positive definite has a non-positive spectrum."""


class RankDeficient(NumericError):
    """Requested subspace dimension exceeds the numerical rank."""


class NormalizationDegenerate(NumericError):
    """Gram trace too small to normalize against."""


class DegenerateDenominator(NumericError):
    """Trace-ratio denominator vanished."""


class ZeroTotalScatter(NumericError):
    """Total scatter matrix is numerically zero; nothing to learn from."""


class NonFiniteGradient(NumericError):
    """Gradient contains NaN or Inf; ascent step refused."""


class BadDimension(NumericError):
    """Requested projection or subspace dimension is out of the feasible range."""


# --- data family ------------------------------------------------------------

class TooFewSamples(DataError):
    """An image set has fewer samples than the estimator needs."""


class DimensionMismatch(DataError):
    """Feature dimensions disagree between sets, descriptors, or model."""


class SingleClassGallery(DataError):
    """Training gallery contains only one class; no between-class pairs."""


class ParseError(DataError):
    """A data file could not be parsed; message cites file and line."""


class BadSpec(DataError):
    """A specification is invalid: synthetic data, configuration, protocol
    or a parameter out of its domain."""


class InsufficientSetsPerClass(DataError):
    """A class has too few sets for the requested train/test split."""


class IoError(DataError):
    """Model or dataset directory missing or unreadable."""


class FormatVersionMismatch(DataError):
    """Stored model was written with an unsupported format version."""


class ChecksumMismatch(DataError):
    """Stored array bytes do not match the recorded checksum."""

