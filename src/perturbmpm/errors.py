"""Exception types shared across the package."""


class PerturbMpmError(Exception):
    """Base class for all package errors."""


class ModelShapeError(PerturbMpmError):
    """Model components have inconsistent dimensions or invalid values."""


class CapacityError(PerturbMpmError):
    """A brute-force operation was asked to exceed its state-count guard."""


class FormatError(PerturbMpmError):
    """A file does not conform to its expected binary or text format."""


class ConfigError(PerturbMpmError):
    """A run configuration, from a file, a flag or a caller, is invalid."""
