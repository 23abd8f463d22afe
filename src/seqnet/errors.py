"""Exception types raised across the toolkit."""


class SeqnetError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SeqnetError, ValueError):
    """Invalid parameter combination or unknown configuration key."""


class EmptyInputError(SeqnetError):
    """Input file or dataset contains no records."""


class ParseError(SeqnetError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_numbers(fields, line, convert=int) -> list:
    """``convert`` applied to each field; a field it rejects raises ParseError."""
    try:
        return list(map(convert, fields))
    except ValueError:
        raise ParseError(f"expected numbers, got {list(fields)!r}", line=line) from None


class AlphabetError(SeqnetError, ValueError):
    """Character outside the 20-letter amino-acid alphabet."""


class StratifyError(SeqnetError, ValueError):
    """A class is too small to stratify at the requested granularity."""


class MerSizeError(SeqnetError, ValueError):
    """Window size k is incompatible with the sequence length."""


class NeighborCountError(SeqnetError, ValueError):
    """Requested more neighbors than there are other points."""


class ConnectivityError(SeqnetError, ValueError):
    """Graph is disconnected where a connected graph is required."""


class DimensionError(SeqnetError, ValueError):
    """Embedding dimension incompatible with the graph size or method."""


class DivergenceError(SeqnetError, ValueError):
    """Series parameter outside its convergence radius."""


class UndefinedMetricError(SeqnetError, ValueError):
    """Metric undefined for the given labeling (e.g. a single cluster)."""


class MissingScoresError(SeqnetError, ValueError):
    """Per-class scores required but not supplied."""
