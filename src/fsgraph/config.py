"""Run-time limits.

All the exhaustive searches in this package walk state spaces that grow
like n!, so they refuse up-front, with a ResourceLimitError, anything that
would blow past a cap.  Two caps are settable, through :class:`RunConfig`
in the library or the ``--state-cap``/``--listing-cap`` flags of the CLI
commands that honour them; the other caps are the constants below, read
directly by the routines they bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError

DEFAULT_STATE_CAP = 400_000      # max explored FS(X,Y) vertices; 9! fits
DEFAULT_LISTING_CAP = 10_000     # max permutations listed in reports
DEFAULT_CLOSURE_CAP = 100_000    # max acyclic orientations x (1 + flip selections) in a closure or listing
DEFAULT_TUTTE_NODE_CAP = 100_000   # max memoised multigraphs in one Tutte evaluation
DEFAULT_EXTENSION_VERTEX_CAP = 10   # max n for linear-extension listings
DEFAULT_HEREDITARY_BASE = 5      # brute-force floor of the hereditary recursion
DEFAULT_HEREDITARY_NODE_BUDGET = 2_000   # max pairs one hereditary recursion expands


@dataclass(frozen=True)
class RunConfig:
    """The two settable caps shared by the search routines and the CLI."""

    state_cap: int = DEFAULT_STATE_CAP
    listing_cap: int = DEFAULT_LISTING_CAP

    def __post_init__(self) -> None:
        if self.state_cap <= 0 or self.listing_cap <= 0:
            raise InvalidArgumentError("RunConfig caps must be positive")


DEFAULT_CONFIG = RunConfig()
