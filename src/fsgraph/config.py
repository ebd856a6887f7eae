"""Run-time limits.

All the exhaustive searches in this package walk state spaces that grow
like n!, so they refuse up-front, with a ResourceLimitError, anything that
would blow past a cap.  Two caps are settable, through :class:`RunConfig`
in the library or the ``--state-cap``/``--listing-cap`` flags of the CLI
commands that honour them; the other caps are the constants below, read
directly by the routines they bound.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidArgumentError

DEFAULT_STATE_CAP = 400_000      # max explored FS(X,Y) vertices, and decide's fiber work; 9! fits
DEFAULT_LISTING_CAP = 10_000     # max permutations listed in reports
DEFAULT_CLOSURE_CAP = 100_000    # max acyclic orientations x (1 + flip selections) in a closure or listing
DEFAULT_TUTTE_NODE_CAP = 100_000   # max memoised multigraphs in one Tutte evaluation
DEFAULT_EXTENSION_VERTEX_CAP = 10   # max n for linear-extension listings
DEFAULT_FIBER_BASE = 6           # max n the fiber induction of decide settles by brute force
DEFAULT_VERTEX_CAP = 20_000      # max vertices of a family: spec or a JSON graph, checked before any mask is built


class _Caps(NamedTuple):
    state_cap: int = DEFAULT_STATE_CAP
    listing_cap: int = DEFAULT_LISTING_CAP


class RunConfig(_Caps):
    """The two settable caps shared by the search routines and the CLI."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))   # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.state_cap <= 0 or self.listing_cap <= 0:
            raise InvalidArgumentError("RunConfig caps must be positive")
        return self


DEFAULT_CONFIG = RunConfig()
