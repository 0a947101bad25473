"""Disk cache for expensive deterministic computations.

Entries are keyed by a content hash supplied by the caller and stored as one
JSON file per key.  Writers stage to a temporary file in the same directory
and publish with an atomic rename, so concurrent writers are safe; a corrupt
entry is treated as a miss and overwritten on the next store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction

from .poly import Polynomial, VariableTable

# Folded into every key.  Bump it whenever a fix changes what a computation
# returns, so that entries written before the fix become misses.
# 2: SparseEchelon keeps its rows fully reduced (kernels were wrong before).
# Its primitive integer rows change no returned value, so they need no bump.
SCHEMA_VERSION = 2


class DiskCache:
    """The directory is made by the first store, so reads and ``clear`` on a
    missing directory leave nothing behind.  A store that fails, because the
    directory cannot be made or written, is skipped."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"gasymp_{key}.json")

    def get(self, key: str):
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        return entry.get("value")

    def put(self, key: str, value) -> None:
        payload = json.dumps({"key": key, "value": value}, sort_keys=True)
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".gasymp_", dir=self.directory)
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def clear(self) -> int:
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if name.startswith("gasymp_") and name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed


def content_key(payload) -> str:
    blob = json.dumps([SCHEMA_VERSION, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_poly(p: Polynomial) -> list:
    """JSON form of a polynomial: sorted [[exponents], numerator, denominator]."""
    return [[list(m), c.numerator, c.denominator] for m, c in sorted(p.terms.items())]


def decode_poly(table: VariableTable, data) -> Polynomial:
    return Polynomial(table, {tuple(m): Fraction(num, den) for m, num, den in data})


_active_cache: DiskCache | None = None


def set_active_cache(cache: DiskCache | None) -> None:
    global _active_cache
    _active_cache = cache


def cached(key_fn, compute, encode, decode):
    """``compute()``, served from the active cache under ``key_fn()`` when an
    entry is there and stored as ``encode(value)`` when it is not.  Without an
    active cache no key is made."""
    disk = _active_cache
    if disk is None:
        return compute()
    key = key_fn()
    stored = disk.get(key)
    if stored is not None:
        return decode(stored)
    value = compute()
    disk.put(key, encode(value))
    return value


def default_cache_dir() -> str:
    env = os.environ.get("GASYMP_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "gasymp")
