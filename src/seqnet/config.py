"""Pipeline configuration: defaults, INI config files, and override precedence.

``PipelineConfig`` declares every knob once. Each field is an INI key under
the section ``SECTIONS`` names for it and a CLI flag ``--name`` (``_``
spelled ``-``), and both read their text through ``PARSERS``, chosen by the
field's annotation. Effective values resolve as CLI flag > config file >
built-in default; any unknown section or key is rejected by name.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from typing import Optional, get_type_hints

from .errors import ConfigError, check_int

WORKERS_ENV = "SEQNET_WORKERS"


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; spaces and empty items are skipped."""
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _optional(convert):
    """``convert``, except that an empty text or ``none`` reads as None."""

    def parse(text: str):
        return None if text.strip().lower() in ("", "none") else convert(text)

    parse.__name__ = f"optional {convert.__name__}"  # argparse names the type in errors
    return parse


def _default_workers() -> int:
    """``SEQNET_WORKERS``, or 1 where it is unset or blank."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


@dataclass(frozen=True)
class PipelineConfig:
    # core defaults: 3-mers, 20 neighbors, 200-dimensional embeddings
    k: int = 3
    K: int = 20
    dim: int = 200
    method: str = "node2vec"
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    workers: int = 1
    strict: bool = False
    timings: bool = False
    # random walks / skip-gram
    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 10
    walk_length: int = 80
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    # clustering
    k_clusters: int = 4
    eps: float = 0.5
    min_pts: int = 5
    batch_size: Optional[int] = None
    gamma: Optional[float] = None
    var_floor: float = 1e-6
    pca_dim: Optional[int] = None
    # classification protocol
    test_fraction: float = 0.3
    num_folds: int = 5

    def __post_init__(self):
        check_int("workers", self.workers, 1)


# the INI section of each field
SECTIONS = {
    "pipeline": ("k", "K", "dim", "method", "seed", "seeds", "workers", "strict", "timings"),
    "walks": (
        "p", "q", "walks_per_node", "walk_length", "window", "negatives", "epochs",
        "learning_rate",
    ),
    "cluster": ("k_clusters", "eps", "min_pts", "batch_size", "gamma", "var_floor", "pca_dim"),
    "classify": ("test_fraction", "num_folds"),
}

_TYPE_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: parse_bool,
    tuple[int, ...]: parse_int_list,
    Optional[int]: _optional(int),
    Optional[float]: _optional(float),
}

# the text parser of each field, for its INI key and its CLI flag alike
PARSERS = {name: _TYPE_PARSERS[hint] for name, hint in get_type_hints(PipelineConfig).items()}


def load_config(path=None) -> PipelineConfig:
    """Read an INI config file; an empty or absent file gives pure defaults."""
    config = PipelineConfig(workers=_default_workers())
    if path is None:
        return config
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep case: k (mer size) and K (neighbors) differ
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config file {path}: {exc}") from exc
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"unknown config section [{parser.default_section}] in {path}")
    updates = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown config key {key!r} in [{section}] of {path}")
            try:
                updates[key] = PARSERS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in {path}: {raw!r}") from exc
    return replace(config, **updates)


def config_items(config: PipelineConfig, names) -> list[tuple[str, str]]:
    """Sorted (key, rendered value) pairs of the named fields, for sidecars."""
    values = [(name, getattr(config, name)) for name in sorted(names)]
    return [(k, ",".join(map(str, v)) if isinstance(v, tuple) else str(v)) for k, v in values]
