"""Content-keyed result cache.

Keys are sha256 digests of a canonical JSON encoding of the inputs, so a
hit can never change an answer: identical inputs map to identical files.
An entry holds the text of the result exactly as the caller writes it out.
The cache directory defaults to ~/.cache/zeta-workbench and is overridden
by the ZETA_CACHE_DIR environment variable.
"""

from __future__ import annotations

import contextlib
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
    import hashlib  # here, not at module level: only enumerate keys its output

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load(key: str) -> str | None:
    """The stored text, or None when the entry is absent or unreadable."""
    try:
        return (cache_dir() / f"{key}.json").read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None


def store(key: str, text: str) -> None:
    """Write atomically: each writer fills its own temp file in the cache
    directory and renames it over the entry, so concurrent writers of one
    key never share a file and readers see a complete document or none."""
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, directory / f"{key}.json")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
