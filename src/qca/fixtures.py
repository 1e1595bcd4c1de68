"""Bundled fixed-data fixtures used by the demos, the CLI self-checks, and
the acceptance suite.  Each is built once: FixedData is frozen, so every
caller shares the one object."""

from __future__ import annotations

from ._cache import memo
from .seeds import FixedData, make_fixed_data


@memo
def a2_tables() -> FixedData:
    """The mutation-table fixture: eps = ((0,-1),(1,0)), d = (1,1)."""
    return make_fixed_data([[0, -1], [1, 0]])


@memo
def a2_scattering() -> FixedData:
    """The scattering-figure fixture: {e1,e2} = +1, d = (1,1), whose initial
    walls carry 1 + A2 and 1 + A1^{-1}."""
    return make_fixed_data([[0, 1], [-1, 0]])


@memo
def a23() -> FixedData:
    """A(2,3): eps = ((0,-3),(2,0)), d = (2,3)."""
    return make_fixed_data([[0, -1], [1, 0]], d=[2, 3])


@memo
def rank3_frozen() -> FixedData:
    """Rank 3 with one frozen direction; admits a compatible pair."""
    return make_fixed_data([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], unfrozen=[0, 1])


@memo
def rank3_full() -> FixedData:
    """Rank 3, all directions unfrozen (no compatible pair exists)."""
    return make_fixed_data([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


ALL = {
    "a2": a2_tables,
    "a2-scattering": a2_scattering,
    "a23": a23,
    "rank3-frozen": rank3_frozen,
    "rank3": rank3_full,
}
