"""Result cache: atomic writes under concurrent writers of one key."""

import json
import os
import types

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
