"""Exception types shared across the package, in three families, one per
exit code: ConfigurationError (2), CertificateError (3), NumericError (4)."""


class CoincidiaError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CoincidiaError):
    """Family base, exit code 2: a precondition on arguments or problem setup was violated."""


class DomainError(ConfigurationError, ValueError):
    """ConfigurationError family: a numeric argument lies outside the domain of an operation."""


class NumericError(CoincidiaError):
    """Family base, exit code 4: a computation produced non-finite values or failed to converge."""


class BracketingError(NumericError):
    """NumericError family: no bracket encloses the requested target value of a map."""


class CertificateError(CoincidiaError):
    """Family base, exit code 3: a contraction or hypothesis certificate a solve needs failed."""
