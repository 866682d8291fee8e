"""Exception types shared across the package, and its one numeric check.

Grouping: numerical conditions (zero vectors, empty negative pools, ...)
are distinct from structural/file-format conditions so the CLI can map
them onto distinct exit codes.  ``check_number`` checks every numeric
setting, in the library and on the command line, with the same rules and
wording: an integer setting must be an integer (a float such as 2.0 is
refused, NumPy integers pass), a float setting finite, and both within
their bounds, or ValueError names the setting.
"""

import math
import operator


def check_number(name: str, value, kind: type = int, low=None, strict=False, high=math.inf):
    """``value`` as checked: an int (via operator.index) or a finite
    number, >= ``low`` (> when ``strict``) and <= ``high``.  Raises
    ValueError worded ``<name>: must be >= 1, got 0``."""
    if kind is int:
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name}: expected an integer, got {value!r}") from None
    elif not math.isfinite(value):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ValueError(f"{name}: must be {'>' if strict else '>='} {low}, got {value}")
    if value > high:
        raise ValueError(f"{name}: must be <= {high}, got {value}")
    return value


class BitextkitError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# numerical / state errors (CLI exit code 3)
# ---------------------------------------------------------------------------


class ZeroVectorError(BitextkitError):
    """A vector with (near-)zero norm where a direction is required."""


class DimMismatchError(BitextkitError):
    """Operands with incompatible dimensionality."""


class FrozenEncoderError(BitextkitError):
    """Attempt to compute parameter updates for a frozen encoder."""


class EmptyNegativesError(BitextkitError):
    """Contrastive loss requested with an empty negative set."""


class AllFilteredError(BitextkitError):
    """Every sample's negative set was filtered empty (internal signal)."""


class KTooLargeError(BitextkitError):
    """k-nearest-neighbour query with k exceeding the candidate count."""


class SizeMismatchError(BitextkitError):
    """Paired inputs whose sizes disagree."""


class TooFewPairsError(BitextkitError):
    """Not enough pairs to perform the requested corpus operation."""


class DivergenceError(BitextkitError):
    """Training produced a non-finite loss or non-finite weights."""


# ---------------------------------------------------------------------------
# file / format errors (CLI exit code 2)
# ---------------------------------------------------------------------------


class FormatError(BitextkitError):
    """Base class for file-format violations."""


class BadMagicError(FormatError):
    """Embedding file does not start with the expected magic bytes."""


class TruncatedFileError(FormatError):
    """Embedding file shorter than its header promises."""


class DimZeroError(FormatError):
    """Embedding file declares dimension zero."""


class CorpusFormatError(FormatError):
    """Malformed TSV corpus; carries the offending 1-based line numbers."""

    def __init__(self, path: str, lines: list[int], reason: str):
        self.path = path
        self.lines = lines
        self.reason = reason
        shown = ", ".join(str(n) for n in lines[:10])
        if len(lines) > 10:
            shown += ", ..."
        super().__init__(f"{path}: {reason} (line{'s' if len(lines) != 1 else ''} {shown})")


class ConfigError(BitextkitError):
    """Invalid configuration value (CLI exit code 1)."""
