"""Run-time limits and knobs.

All the exhaustive searches in this package walk state spaces that grow
like n!, so every entry point takes a :class:`RunConfig` (or uses the
module default) and refuses up-front, with a ResourceLimitError, anything
that would blow past the caps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import InvalidArgumentError

STATE_CAP_ENV = "FS_STATE_CAP"

DEFAULT_STATE_CAP = 400_000      # max explored FS(X,Y) vertices; 9! fits
DEFAULT_LISTING_CAP = 10_000     # max permutations listed in reports
DEFAULT_EDGE_CAP = 24            # max edges for orientation enumeration
DEFAULT_EXTENSION_VERTEX_CAP = 10   # max n for linear-extension listings
DEFAULT_PROLONGATION_VERTEX_CAP = 12
DEFAULT_HEREDITARY_BASE = 5      # brute-force floor of the hereditary recursion


def _default_state_cap() -> int:
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidArgumentError(f"{STATE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise InvalidArgumentError(f"{STATE_CAP_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Caps and seeds shared by the search routines and the CLI."""

    state_cap: int = field(default_factory=_default_state_cap)
    listing_cap: int = DEFAULT_LISTING_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.state_cap <= 0 or self.listing_cap <= 0:
            raise InvalidArgumentError("RunConfig caps must be positive")


DEFAULT_CONFIG = RunConfig()
