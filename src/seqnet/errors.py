"""Exception types raised across the toolkit, the range check that
classifier and clusterer hyperparameters share, and the memory guard that
raises one before a dense allocation the machine cannot hold."""

import math
import numbers
import os
from typing import Optional


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


def check_number(name, value, low, strict):
    """ConfigError unless value is a finite number above ``low`` (``strict``)
    or at least ``low``."""
    if not (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and (value > low if strict else value >= low)
    ):
        relation = ">" if strict else ">="
        raise ConfigError(f"{name} must be a finite number {relation} {low}, got {value!r}")


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
    """Series parameter outside its convergence radius, or an iteration that
    left the finite range."""


class UndefinedMetricError(SeqnetError, ValueError):
    """Metric undefined for the given labeling (e.g. a single cluster)."""


class MissingScoresError(SeqnetError, ValueError):
    """Per-class scores required but not supplied."""


class MemoryLimitError(SeqnetError):
    """A dense allocation larger than the memory available to the process."""


def available_memory() -> Optional[int]:
    """Bytes of memory available for new allocations: ``MemAvailable`` in
    ``/proc/meminfo``, else the free physical pages from ``os.sysconf``;
    None when neither can be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, AttributeError):
        return None


def check_memory(nbytes: int, what: str) -> None:
    """Raise ``MemoryLimitError`` naming ``what`` and its estimated bytes
    when they exceed :func:`available_memory`, so a run that would be
    killed for lack of memory stops with the estimate instead."""
    available = available_memory()
    if available is not None and nbytes > available:
        raise MemoryLimitError(
            f"{what} needs about {nbytes / 1e6:,.0f} MB, "
            f"but only {available / 1e6:,.0f} MB of memory is available"
        )
