"""The package's one caching mechanism.

Every process-wide memo of the engine (the bundled fixtures, the tori, p*
and the principal compatible pair of each fixed data, the nodes and steps
of each exchange graph and each node's pulled-back variables) is made with
:func:`memo`, and :func:`clear` empties them all, so a caller can free the
memory they hold or start again from cold caches.
"""

from functools import cache

_MEMOS = []  # every function made by memo, in the order they were made


def memo(fn):
    """``functools.cache(fn)``, recorded so that :func:`clear` empties it."""
    cached = cache(fn)
    _MEMOS.append(cached)
    return cached


def clear() -> None:
    """Empty every memo made by :func:`memo`."""
    for cached in _MEMOS:
        cached.cache_clear()
