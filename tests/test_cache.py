"""Result cache: atomic writes under concurrent writers of one key, and an
entry that is not its digest line then its text is a miss."""

import hashlib
import json
import os
import types

import pytest

from zeta_workbench import cache


def test_store_survives_second_writer_mid_write(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    key = cache.cache_key({"op": "race"})
    first = json.dumps({"classes": list(range(200)), "writer": "first"})
    second = json.dumps({"classes": list(range(300)), "writer": "second"})
    interrupted = []

    class WriteInHalves:
        # write half the text, let a second store of the same key run to
        # completion, then finish the first text
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            if not interrupted:
                interrupted.append(True)
                cache.store(key, second)
            self.handle.write(text[len(text) // 2 :])

    fake_os = types.SimpleNamespace(
        environ=os.environ,
        fdopen=lambda fd, *args, **kwargs: WriteInHalves(os.fdopen(fd, *args, **kwargs)),
        replace=os.replace,
        unlink=os.unlink,
    )
    monkeypatch.setattr(cache, "os", fake_os)
    cache.store(key, first)

    assert interrupted
    assert cache.load(key) in (first, second)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_store_then_load_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path / "nested"))
    key = cache.cache_key({"op": "round-trip"})
    assert cache.load(key) is None
    text = json.dumps({"x": [1.5, -2.0]}, indent=2) + "\n"
    cache.store(key, text)
    assert cache.load(key) == text
    # bytes that are not UTF-8 cannot be the text of a result: a miss
    (tmp_path / "nested" / f"{key}.json").write_bytes(b"\xff\xfe{")
    assert cache.load(key) is None


@pytest.mark.parametrize("text", ["", '{"x": 1}', "one\ntwo\r\nthree \u00e9"])
def test_load_returns_exactly_what_store_was_given(tmp_path, monkeypatch, text):
    # the empty text and a text with no final newline round-trip too
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    key = cache.cache_key({"op": "exact", "text": text})
    cache.store(key, text)
    assert cache.load(key) == text


def _digest(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


@pytest.mark.parametrize(
    "fault",
    ["flipped body byte", "no digest line", "empty file", "digest line alone",
     "digest of another text"],
)
def test_an_entry_that_is_not_its_own_is_a_miss(tmp_path, monkeypatch, fault):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    key = cache.cache_key({"op": "checked"})
    text = json.dumps({"classes": [1.5, 2.5], "source": "enumerated"}) + "\n"
    cache.store(key, text)
    entry = tmp_path / f"{key}.json"
    body = text.encode("utf-8")
    assert entry.read_bytes() == _digest(body) + body
    corrupt = {
        "flipped body byte": _digest(body) + body.replace(b"1.5", b"1.6"),
        "no digest line": body,  # the layout before entries carried their digest
        "empty file": b"",
        "digest line alone": _digest(body),
        "digest of another text": _digest(b"{}") + body,
    }[fault]
    entry.write_bytes(corrupt)
    assert cache.load(key) is None
