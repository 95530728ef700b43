"""Run directory I/O: JSONL appends, atomic JSON, state, events."""
from __future__ import annotations

import json
import sys
import threading

import pytest

from synthweaver import runstore
from synthweaver.dataset import observation_ref
from synthweaver.errors import SchemaError
from synthweaver.model import canonical_json, observation_to_dict
from synthweaver.runstore import RunStore
from tests.conftest import obs


class TestRecords:
    def test_append_then_read(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_record("things.jsonl", {"b": 2, "a": 1})
        store.append_record("things.jsonl", {"a": 3})
        assert list(store.read_records("things.jsonl")) == [{"b": 2, "a": 1}, {"a": 3}]

    def test_lines_are_canonical_json(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_record("things.jsonl", {"b": 2, "a": 1, "s": "é"})
        raw = store.path("things.jsonl").read_text(encoding="utf-8")
        assert raw == '{"a":1,"b":2,"s":"é"}\n'

    def test_append_many(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_records("things.jsonl", [{"i": i} for i in range(5)])
        store.append_records("things.jsonl", [])
        assert [r["i"] for r in store.read_records("things.jsonl")] == list(range(5))

    def test_read_missing_file_yields_nothing(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert list(store.read_records("absent.jsonl")) == []

    def test_torn_last_line_is_cut_off(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_records("things.jsonl", [{"i": 0}, {"i": 1}])
        with open(store.path("things.jsonl"), "a", encoding="utf-8") as fh:
            fh.write('{"i": 2, "tor')
        assert list(store.read_records("things.jsonl")) == [{"i": 0}, {"i": 1}]
        store.append_record("things.jsonl", {"i": 3})
        assert store.path("things.jsonl").read_text() == '{"i":0}\n{"i":1}\n{"i":3}\n'

    def test_whole_last_record_without_newline_is_kept(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.path("things.jsonl").write_text('{"i":0}\n{"i":1}')
        assert list(store.read_records("things.jsonl")) == [{"i": 0}, {"i": 1}]
        store.append_record("things.jsonl", {"i": 2})
        assert [r["i"] for r in store.read_records("things.jsonl")] == [0, 1, 2]

    def test_corrupt_line_mid_file_is_schema_error(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.path("things.jsonl").write_text('{"i":0}\n{"i":\n{"i":2}\n')
        with pytest.raises(SchemaError, match=r"things\.jsonl: line 2 "):
            list(store.read_records("things.jsonl"))
        assert store.path("things.jsonl").read_text() == '{"i":0}\n{"i":\n{"i":2}\n'

    def test_rewrite_replaces_contents(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_records("things.jsonl", [{"i": i} for i in range(5)])
        store.rewrite_records("things.jsonl", [{"i": 9}])
        assert list(store.read_records("things.jsonl")) == [{"i": 9}]
        assert not store.path("things.jsonl.tmp").exists()

    def test_concurrent_appends_lose_nothing(self, tmp_path):
        store = RunStore(tmp_path / "run")

        def work(offset: int) -> None:
            for i in range(200):
                store.append_record("things.jsonl", {"i": offset + i})

        threads = [threading.Thread(target=work, args=(t * 1000,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seen = sorted(r["i"] for r in store.read_records("things.jsonl"))
        assert seen == sorted(t * 1000 + i for t in range(8) for i in range(200))


class TestObservations:
    def test_each_observation_is_stored_once_in_export_form(self, tmp_path):
        store = RunStore(tmp_path / "run")
        a = obs(url="https://a.test/", ids=(1, 2), screenshot="s.png")
        b = obs(url="https://b.test/")
        observations = store.observations()
        observations.add([a, b, obs(url="https://a.test/", ids=(1, 2), screenshot="s.png")])
        observations.add([a])
        lines = store.path(runstore.OBSERVATIONS).read_text(encoding="utf-8").splitlines()
        assert lines == [
            canonical_json({"ref": observation_ref(o), "observation": observation_to_dict(o)})
            for o in (a, b)
        ]

    def test_lookup_decodes_a_body_once_on_first_use(self, tmp_path):
        store = RunStore(tmp_path / "run")
        a = obs(url="https://a.test/", ids=(3,))
        store.observations().add([a])
        observations = store.observations()
        stored = observations[a.ref]
        assert stored is observations[a.ref]
        assert "url" not in vars(stored)
        assert stored.ref == a.ref
        assert "url" not in vars(stored)
        assert stored == a
        assert stored.elements == a.elements and stored.screenshot_ref is None

    def test_torn_last_line_is_cut_off(self, tmp_path):
        store = RunStore(tmp_path / "run")
        a, b = obs(url="https://a.test/"), obs(url="https://b.test/")
        store.observations().add([a, b])
        path = store.path(runstore.OBSERVATIONS)
        path.write_bytes(path.read_bytes()[:-20])
        observations = store.observations()
        assert a.ref in observations and b.ref not in observations
        observations.add([b])
        assert path.read_text(encoding="utf-8") == a.stored_line + "\n" + b.stored_line + "\n"

    def test_whole_last_line_without_newline_is_kept(self, tmp_path):
        store = RunStore(tmp_path / "run")
        a = obs(url="https://a.test/")
        store.path(runstore.OBSERVATIONS).write_text(a.stored_line, encoding="utf-8")
        assert a.ref in store.observations()
        assert store.path(runstore.OBSERVATIONS).read_text(encoding="utf-8") == a.stored_line + "\n"

    def test_concurrent_adds_store_each_observation_once(self, tmp_path):
        store = RunStore(tmp_path / "run")
        observations = store.observations()

        def page(i: int):
            return obs(url=f"https://p{i % 40}.test/", ids=tuple(range(i % 7)))

        def work(offset: int) -> None:
            for i in range(200):
                # Fresh objects, so every thread encodes its own copy.
                observations.add([page(offset + i), page(offset + 3 * i)])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t * 11,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        lines = store.path(runstore.OBSERVATIONS).read_text(encoding="utf-8").splitlines()
        refs = [json.loads(line)["ref"] for line in lines]
        assert sorted(refs) == sorted({page(i).ref for i in range(280)})

    def test_other_line_is_schema_error(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.path(runstore.OBSERVATIONS).write_text('{"i":0}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=r"observations\.jsonl: line 1 "):
            store.observations()


class TestJson:
    def test_write_read_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.write_json("doc.json", {"z": [1, 2], "a": "x"})
        assert store.read_json("doc.json") == {"z": [1, 2], "a": "x"}
        assert not store.path("doc.json.tmp").exists()

    def test_read_missing_returns_default(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert store.read_json("absent.json") is None
        assert store.read_json("absent.json", default={"d": 1}) == {"d": 1}


class TestStateAndEvents:
    def test_default_state(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert store.load_state() == {"schema_version": 4, "explored_sites": []}

    @pytest.mark.parametrize("stamp", [True, 1.0, "1", None, 2.0, "2", 3.0, "3", 4.0, "4"])
    def test_state_stamped_with_another_format_is_refused(self, tmp_path, stamp):
        store = RunStore(tmp_path / "run")
        store.write_json(runstore.STATE, {"schema_version": stamp})
        with pytest.raises(SchemaError, match=f"schema_version: {stamp!r}, "):
            store.load_state()

    def test_save_state_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "run")
        state = store.load_state()
        state["explored_sites"].append("shop")
        store.save_state(state)
        assert store.load_state()["explored_sites"] == ["shop"]

    def test_events_carry_timestamps(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.event("stage.start", {"stage": "explore"})
        (record,) = store.read_records(runstore.EVENTS)
        assert record["kind"] == "stage.start"
        assert record["stage"] == "explore"
        assert isinstance(record["ts"], float)

    def test_kept_open_file_is_opened_once_and_flushed(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "run")
        opened = []

        def recorded(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(runstore, "open", recorded, raising=False)
        with pytest.raises(RuntimeError):
            with store.kept_open(runstore.EVENTS):
                for i in range(3):
                    store.event("tick", {"i": i})
                    assert len(store.path(runstore.EVENTS).read_bytes().splitlines()) == i + 1
                raise RuntimeError("stage failed")
        assert len(opened) == 1 and opened[0].closed
        store.event("tick", {"i": 3})  # after the block, each append opens the file
        assert len(opened) == 2 and opened[1].closed
        assert [r["i"] for r in store.read_records(runstore.EVENTS)] == [0, 1, 2, 3]

    def test_only_events_have_timestamps(self, tmp_path):
        """Every other artifact must be byte-stable across reruns."""
        store = RunStore(tmp_path / "run")
        store.append_record(runstore.TASKS, {"id": "t-1"})
        store.write_json(runstore.STATE, store.load_state())
        for name in (runstore.TASKS, runstore.STATE):
            text = store.path(name).read_text(encoding="utf-8")
            assert '"ts"' not in text

    def test_dataset_dir_created(self, tmp_path):
        store = RunStore(tmp_path / "run")
        d = store.dataset_dir()
        assert d.is_dir()
        assert d == store.root / "dataset"

    def test_root_created_on_init(self, tmp_path):
        root = tmp_path / "a" / "b" / "run"
        RunStore(root)
        assert root.is_dir()
