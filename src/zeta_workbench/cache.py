"""Content-keyed result cache.

Keys are sha256 digests of a canonical JSON encoding of the inputs, so a
hit can never change an answer: identical inputs map to identical files.
An entry is one line holding the sha256 hex digest of the text, then the
text exactly as the caller gave it, so load returns exactly what store was
given, or None.  The cache directory defaults to ~/.cache/zeta-workbench
and is overridden by the ZETA_CACHE_DIR environment variable.

sha256 comes from CPython's built-in module (_sha256 before 3.12, _sha2
from 3.12), as the random module takes its sha512: importing hashlib maps
OpenSSL's libcrypto, which cost an enumerate call about 3.5 MB of resident
memory and 3 ms (CPython 3.11 on Linux) for two digests.  The digests are
the same bytes either way, so keys and entries do not depend on where
sha256 came from; hashlib is the fallback for an interpreter built without
either module.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["cache_dir", "cache_key", "load", "store"]


def cache_dir() -> Path:
    override = os.environ.get("ZETA_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "zeta-workbench"


def cache_key(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _digest_line(body: bytes) -> bytes:
    return sha256(body).hexdigest().encode("ascii") + b"\n"


def load(key: str) -> str | None:
    """The text stored under key, or None when the entry is absent,
    unreadable, or not the digest line of the bytes that follow it: a
    torn, foreign or older-layout entry is a miss."""
    try:
        data = (cache_dir() / f"{key}.json").read_bytes()
        newline = data.find(b"\n") + 1
        body = data[newline:]
        if newline and data[:newline] == _digest_line(body):
            return body.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        pass
    return None


def store(key: str, text: str) -> None:
    """Write atomically: each writer fills its own temp file in the cache
    directory and renames it over the entry, so concurrent writers of one
    key never share a file and readers see a complete entry or none."""
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    body = text.encode("utf-8")
    fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_digest_line(body))
            handle.write(body)
        os.replace(tmp, directory / f"{key}.json")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
