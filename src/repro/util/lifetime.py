"""The two halves of a simulated world's lifetime (docs/simulator.md §4,
docs/performance.md §9).

*While it is built and run* CPython's cyclic collector is paused: a run
allocates hundreds of thousands of containers and orphans almost none in
cycles, so every pass inside it walks the live world to find nothing.
*Once it has finished* the references that point up at an owner are
replaced by :class:`Released`, leaving a tree that reference counting
frees when the result is dropped — or the pause would pile dead worlds up.
"""

from __future__ import annotations

import contextlib
import gc
import typing as t

from repro.errors import ReproError

__all__ = ["Released", "gc_paused"]


@contextlib.contextmanager
def gc_paused() -> t.Iterator[None]:
    """Disable the collector for the block and restore the state found.

    Nests (an inner block finds the collector off and leaves it off),
    restores on any exit including ``KeyboardInterrupt``, and never
    enables a collector the caller had disabled.  ``gc.disable()`` is
    process-wide.  Also a decorator: ``@gc_paused()``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Released:
    """What a finished world leaves where a reference pointed up at its
    owner: reading through it raises ``error`` naming ``what``, not the
    ``AttributeError: 'NoneType'`` a bare ``None`` would give."""

    __slots__ = ("_error", "_what")

    def __init__(self, error: type[ReproError], what: str) -> None:
        self._error = error
        self._what = what

    def __getattr__(self, name: str) -> t.NoReturn:
        if name.startswith("__"):  # copy/pickle/hasattr probes keep their protocol
            raise AttributeError(name)
        raise self._error(
            f"{self._what} was released when its run finished; {name!r} can "
            "no longer be reached through it (hold the runtime itself instead)"
        )

    def __repr__(self) -> str:
        return f"<released {self._what}>"
