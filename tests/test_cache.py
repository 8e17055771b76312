"""Result cache: atomic writes under concurrent writers of one key."""

import json
import types

from zeta_workbench import cache


def test_store_survives_second_writer_mid_write(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    key = cache.cache_key({"op": "race"})
    first = {"classes": list(range(200)), "writer": "first"}
    second = {"classes": list(range(300)), "writer": "second"}
    interrupted = []

    def dump_in_halves(value, handle, **kwargs):
        # write half the document, let a second store of the same key run
        # to completion, then finish the first document
        text = json.dumps(value, **kwargs)
        handle.write(text[: len(text) // 2])
        handle.flush()
        if not interrupted:
            interrupted.append(True)
            cache.store(key, second)
        handle.write(text[len(text) // 2 :])

    fake_json = types.SimpleNamespace(
        dump=dump_in_halves,
        dumps=json.dumps,
        load=json.load,
        JSONDecodeError=json.JSONDecodeError,
    )
    monkeypatch.setattr(cache, "json", fake_json)
    cache.store(key, first)

    assert interrupted
    assert cache.load(key) in (first, second)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_store_then_load_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path / "nested"))
    key = cache.cache_key({"op": "round-trip"})
    cache.store(key, {"x": [1.5, -2.0]})
    assert cache.load(key) == {"x": [1.5, -2.0]}
