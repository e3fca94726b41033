"""Persistent on-disk result cache for the sweep executor.

PR 2's three cache layers (executor memo, per-batch dedupe, worker
cache) all die with the process; this one survives it.  Results are
stored one-JSON-file-per-entry under a *versioned* directory, keyed by
the job's PYTHONHASHSEED-independent content hash, so a repeated
``python -m repro.experiments`` invocation skips every grid point the
previous run already simulated.

Exactness
---------

A simulation's entry is its :class:`~repro.obs.accounting.RunObs` as
:meth:`~repro.obs.accounting.RunObs.to_jsonable` writes it.  ``json``
serialises floats with ``repr`` (the shortest string that round-trips)
and parses them back with ``float``, so the restored
``time``/``predicted_time`` are the *same doubles* that were stored —
warm-cache reports are byte-identical to cold-cache ones, which the
tests enforce on rendered output.

Invalidation
------------

Entries live under ``<root>/<version>/`` where the version string is
``v{CACHE_SCHEMA_VERSION}-{repro.__version__}``.  Bumping either the
schema constant (entry layout changed) or the package version (the
simulator's outputs may have changed) orphans the old directory —
lookups simply miss and the sweep recomputes.  ``wipe()`` (or deleting
the directory) reclaims the space; nothing else reads it.

Robustness
----------

The cache is an accelerator, never a correctness dependency: writes go
to a temp file and ``os.replace`` into place (concurrent sweeps can't
observe half an entry), and *any* failure to read an entry — missing,
truncated, corrupted, wrong types, unreadable filesystem — is treated
as a miss and recomputed.  Write failures (read-only or full disk) are
silently dropped.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

from repro.errors import ValidationError
from repro.obs.accounting import RunObs

__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "DiskCache", "default_cache_dir"]

#: Bump when the on-disk entry layout or the key scheme changes.
#: v2: entries carry the compact RunObs observability record, so
#: warm-cache runs reconstruct identical metrics and superstep ledgers.
#: v3: job keys encode a topology's pair multipliers (v2 keys collided
#: for machines differing only in a pair multiplier, since removed).
#: v4: job keys encode a topology as its ``topology_hash``.
#: v5: tuning-decision keys and records drop ``item_bytes``, and the
#: robustness jobs drop the injector-seed keyword that repeated their seed.
#: v6: a simulation's entry is its bare ``RunObs`` record; v5 wrapped it
#: in an object that repeated four of its fields.
CACHE_SCHEMA_VERSION = 6


def default_cache_dir() -> Path:
    """The default root of the one persistent store.

    Sweep results persist here when no ``--cache-dir`` is given, and so
    do the tuning decisions made outside any sweep.

    ``$REPRO_CACHE_DIR`` if set; else ``$XDG_CACHE_HOME/repro/sweeps``;
    else ``~/.cache/repro/sweeps``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sweeps"


#: Version directories look like ``v2-0.5.0``; anything else beneath a
#: cache root (say, a user's own files under ``$REPRO_CACHE_DIR``) is not
#: ours to prune.
_VERSION_DIR = re.compile(r"^v\d+-")


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache root, split current-version vs stale.

    ``stale`` covers sibling *version* directories only — orphaned by a
    schema or package-version bump — never unrelated data that happens
    to live under the same root.
    """

    version: str
    entries: int
    bytes: int
    stale_versions: tuple[str, ...]
    stale_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.bytes + self.stale_bytes


class DiskCache:
    """Content-hash-keyed persistent store of :class:`RunObs` records.

    The same version directory also holds the JSON rows other layers
    keep through :meth:`get_json`/:meth:`put_json`: tuning decisions
    (:class:`~repro.tuning.cache.DecisionCache`) and the experiments'
    :func:`~repro.perf.cached_point` rows.

    Parameters
    ----------
    root:
        Cache root; the versioned entry directory is created beneath it
        lazily, on the first ``put``.
    version:
        Override the version-directory name (tests use this to exercise
        invalidation); default ``v{CACHE_SCHEMA_VERSION}-{__version__}``.
    """

    def __init__(self, root: str | os.PathLike[str], *, version: str | None = None) -> None:
        if version is None:
            from repro import __version__

            version = f"v{CACHE_SCHEMA_VERSION}-{__version__}"
        self.root = Path(root)
        self.version = version
        self.dir = self.root / version

    def _path(self, key: str) -> Path:
        # Two-character fan-out keeps directory listings sane for large
        # sweeps without hashing anything new.
        return self.dir / key[:2] / f"{key}.json"

    def get_json(self, key: str) -> dict | None:
        """The raw JSON object stored for ``key``, or ``None`` on any failure."""
        try:
            data = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def put_json(self, key: str, payload: dict) -> None:
        """Atomically persist a JSON object; failures are non-fatal."""
        path = self._path(key)
        text = json.dumps(payload)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass

    def get(self, key: str) -> RunObs | None:
        """The stored record for ``key``, or ``None`` on any failure."""
        data = self.get_json(key)
        if data is None:
            return None
        try:
            return RunObs.from_jsonable(data)
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    def put(self, key: str, run: RunObs) -> None:
        """Persist ``run`` atomically; failures are non-fatal."""
        self.put_json(key, run.to_jsonable())

    def wipe(self) -> None:
        """Delete every version directory (current and stale).

        Non-version children of the root are left alone: the
        ``$REPRO_CACHE_DIR`` override may point at a directory that
        holds other files too.
        """
        shutil.rmtree(self.dir, ignore_errors=True)
        for stale in self._stale_dirs():
            shutil.rmtree(stale, ignore_errors=True)

    def _entries(self) -> list[Path]:
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("*/*.json"))

    def _stale_dirs(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            child
            for child in self.root.iterdir()
            if child.is_dir()
            and child.name != self.version
            and _VERSION_DIR.match(child.name)
        )

    def stats(self) -> CacheStats:
        """Entry count and byte totals, current version vs stale ones."""

        def tree_bytes(path: Path) -> int:
            try:
                return sum(
                    f.stat().st_size for f in path.rglob("*") if f.is_file()
                )
            except OSError:
                return 0

        entries = self._entries()
        size = 0
        for entry in entries:
            try:
                size += entry.stat().st_size
            except OSError:
                pass
        stale = self._stale_dirs()
        return CacheStats(
            version=self.version,
            entries=len(entries),
            bytes=size,
            stale_versions=tuple(d.name for d in stale),
            stale_bytes=sum(tree_bytes(d) for d in stale),
        )

    def prune(self, max_bytes: int = 0) -> tuple[int, int]:
        """Shrink the cache to at most ``max_bytes`` of entry data.

        Stale version directories go first (they can never be read
        again), then the oldest current-version entries by mtime until
        the remainder fits.  ``max_bytes=0`` keeps only the empty
        current-version skeleton.  Returns ``(removed_items, freed_bytes)``
        where removed_items counts stale version dirs plus evicted
        entries.  Non-version directories under the root are never
        touched.
        """
        if max_bytes < 0:
            raise ValidationError(f"max_bytes must be >= 0, got {max_bytes}")
        removed = 0
        freed = 0
        for stale in self._stale_dirs():
            size = sum(
                f.stat().st_size for f in stale.rglob("*") if f.is_file()
            )
            shutil.rmtree(stale, ignore_errors=True)
            if not stale.exists():
                removed += 1
                freed += size
        aged = []  # (mtime, size, path) oldest first
        total = 0
        for entry in self._entries():
            try:
                stat = entry.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, entry))
            total += stat.st_size
        aged.sort(key=lambda item: (item[0], item[2]))
        for _, size, entry in aged:
            if total <= max_bytes:
                break
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        return removed, freed

    def __len__(self) -> int:
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self.dir.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"DiskCache({str(self.dir)!r}, entries={len(self)})"
