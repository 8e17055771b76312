"""Content-keyed result cache.

Keys are sha256 digests of a canonical JSON encoding of the inputs, so a
hit can never change an answer: identical inputs map to identical files.
The cache directory defaults to ~/.cache/zeta-workbench and is overridden
by the ZETA_CACHE_DIR environment variable.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = ["cache_dir", "cache_key", "load", "store"]


def cache_dir() -> Path:
    override = os.environ.get("ZETA_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "zeta-workbench"


def cache_key(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load(key: str) -> dict | None:
    path = cache_dir() / f"{key}.json"
    if not path.is_file():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def store(key: str, value: dict) -> None:
    """Write atomically: each writer fills its own temp file in the cache
    directory and renames it over the entry, so concurrent writers of one
    key never share a file and readers see a complete document or none."""
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(value, handle, sort_keys=True)
        os.replace(tmp, directory / f"{key}.json")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
