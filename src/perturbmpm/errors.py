"""Exceptions, the allocation guard and the argument checks of the package."""

import numpy as np

# Most values one operator may hold: the exact backend's largest d x d axis
# factor or N x N kernel matrix (512 MiB of float64; building it takes a
# few such temporaries more), and the lattice's blur operators together.
MAX_MATRIX_VALUES = 1 << 26


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


def _check_integer(name: str, value, low: int, bits: int | None = None):
    """Raise ValueError naming the argument unless value is an int or a
    numpy integer, not a bool, in [low, 2**bits) (no bound for None)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) \
            or value < low or bits is not None and value >= 2 ** bits:
        within = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
        raise ValueError(f"{name} must be an integer {within}, got {value!r}")


def _check_number(name: str, value, low: float, high: float, low_open=False):
    """Raise ValueError naming the argument unless value is a real number,
    not a bool, in [low, high), or in (low, high) if low_open."""
    if not isinstance(value, (int, float, np.integer, np.floating)) \
            or isinstance(value, bool) or not value < high \
            or not (low < value if low_open else low <= value):
        within = f"{'(' if low_open else '['}{low}, {high})"
        raise ValueError(f"{name} must be a number in {within}, got {value!r}")
