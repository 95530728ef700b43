"""CLI behavior: the five stage subcommands, resume, flags, exit codes."""
from __future__ import annotations

import json
import shutil
from decimal import Decimal

import pytest

from synthweaver import cli
from synthweaver.model import canonical_json
from synthweaver.oracle import MockTransport
from tests.conftest import SHOP_MOCK, write_config


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_all_stages(capsys, config, run_id: str, workers: str = "1") -> None:
    for command in ("explore", "collect", "refine", "export", "stats"):
        code, _, err = run_cli(
            capsys, command, "--config", str(config), "--run", run_id,
            "--workers", workers,
        )
        assert code == cli.EXIT_OK, err


def with_rule(script: dict, **fields) -> dict:
    """The mock script with `fields` set on its first rule; None removes one."""
    rule = {key: value for key, value in {**script["rules"][0], **fields}.items()
            if value is not None}
    return {**script, "rules": [rule, *script["rules"][1:]]}


def restamp(run, stamp) -> None:
    """Set the run's format stamp to `stamp`; None takes it out."""
    state = json.loads((run / "state.json").read_text())
    del state["schema_version"]
    if stamp is not None:
        state["schema_version"] = stamp
    (run / "state.json").write_text(canonical_json(state) + "\n")


def with_inline_observations(run) -> None:
    """Give the run the layout from before observations.jsonl: every step and
    triplet carries its observation instead of its ref. Its state has no
    format stamp, as in a directory of that time."""
    restamp(run, None)
    bodies = {}
    for line in (run / "observations.jsonl").read_text().splitlines():
        record = json.loads(line)
        bodies[record["ref"]] = record["observation"]
    for name in ("triplets.jsonl", "trajectories_raw.jsonl"):
        records = [json.loads(line) for line in (run / name).read_text().splitlines()]
        for record in records:
            if name == "triplets.jsonl":
                for key in ("before", "after"):
                    record[key] = bodies[record.pop(f"{key}_ref")]
            else:
                for step in record["steps"]:
                    step["observation"] = bodies[step.pop("observation_ref")]
        (run / name).write_text("".join(canonical_json(r) + "\n" for r in records))
    (run / "observations.jsonl").unlink()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A shop run taken through export, to copy into a test's runs dir."""
    root = tmp_path_factory.mktemp("finished")
    config = write_config(root)
    for command in ("explore", "collect", "refine", "export"):
        assert cli.main([command, "--config", str(config), "--run", "r"]) == cli.EXIT_OK
    return root / "runs" / "r"


class TestFullRun:
    def test_five_stages_end_to_end(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run = tmp_path / "runs" / "r1"

        code, out, _ = run_cli(capsys, "explore", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "explored 1 site(s): 15 tasks, 18 triplets" in out

        code, out, _ = run_cli(capsys, "collect", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "collected 15/15 trajectories" in out

        code, out, _ = run_cli(capsys, "refine", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "judged 15 trajectories: 10 kept, 4 repaired, 1 dropped" in out

        code, out, _ = run_cli(capsys, "export", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "exported 44 records, 13 observations" in out

        code, out, _ = run_cli(capsys, "stats", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "stats written" in out

        for name in (
            "tasks.jsonl", "triplets.jsonl", "trajectories_raw.jsonl", "judgments.jsonl",
            "events.jsonl", "state.json", "manifest.json", "ledger.json", "stats.json",
        ):
            assert (run / name).exists(), name
        for name in ("trajectories_refined.jsonl", "drops.jsonl"):
            assert not (run / name).exists(), name
        assert (run / "dataset" / "dataset.jsonl").exists()
        assert (run / "dataset" / "observations.jsonl").exists()
        assert (run / "dataset" / "manifest.json").exists()

        state = json.loads((run / "state.json").read_text())
        assert state == {"schema_version": 4, "explored_sites": ["shop"], "seed": 7}
        events = map(json.loads, (run / "events.jsonl").read_text().splitlines())
        finished = [e["stage"] for e in events if e["kind"] == "stage.end" and e["outcome"] == "ok"]
        assert finished == ["explore", "collect", "refine", "export", "stats"]

        stats = json.loads((run / "stats.json").read_text())
        assert stats["overall"]["terminal_pct"]["completed_none"] == 80.0
        assert stats["overall"]["decision_pct"]["keep"] == 66.7
        assert stats["overall"]["mean_refines"] == 0.2
        assert stats["diversity"]["shop"]["score"] == 85

        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["sites"] == ["shop"]
        assert manifest["dataset"]["n_records"] == 44


class TestResume:
    def test_collect_does_not_retry_a_task_whose_reply_never_validates(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        run = tmp_path / "runs" / "r"
        first = json.loads((run / "tasks.jsonl").read_text().splitlines()[0])
        never = {"template": "next_action", "raw": "no json",
                 "when": {"high_level_task": first["text"]}}
        script = json.loads(SHOP_MOCK.read_text())
        mock = tmp_path / "never.mock.json"
        mock.write_text(json.dumps({**script, "rules": [never, *script["rules"]]}))
        calls = []
        for _ in range(3):
            code, out, err = run_cli(
                capsys, "collect", "--config", str(config), "--run", "r", "--mock", str(mock))
            assert code == cli.EXIT_OK, err
            calls.append(json.loads((run / "ledger.json").read_text())["calls"])
        # Each run once paid again for the task: 165, 168 and 171 calls.
        assert calls == [165, 165, 165]
        assert "collected 0/0 trajectories" in out
        (failure,) = map(json.loads, (run / "collect_failures.jsonl").read_text().splitlines())
        assert failure["site"] == "shop" and failure["task_id"] == first["id"]
        assert "no JSON object found" in failure["error"]

    def test_explore_skips_finished_sites(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run_cli(capsys, "explore", "--config", str(config), "--run", "r1")
        before = (tmp_path / "runs" / "r1" / "tasks.jsonl").read_bytes()
        code, out, _ = run_cli(capsys, "explore", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "explored 0 site(s): 0 tasks, 0 triplets" in out
        assert (tmp_path / "runs" / "r1" / "tasks.jsonl").read_bytes() == before

    def test_collect_retries_only_missing_tasks(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run_cli(capsys, "explore", "--config", str(config), "--run", "r1")
        run_cli(capsys, "collect", "--config", str(config), "--run", "r1")
        raw_path = tmp_path / "runs" / "r1" / "trajectories_raw.jsonl"
        lines = raw_path.read_text().splitlines()
        assert len(lines) == 15
        raw_path.write_text("\n".join(lines[:12]) + "\n")

        code, out, _ = run_cli(capsys, "collect", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "collected 3/3 trajectories" in out
        ids = [json.loads(l)["task"]["id"] for l in raw_path.read_text().splitlines()]
        assert len(ids) == 15
        assert len(set(ids)) == 15

    def test_refine_skips_already_judged(self, capsys, tmp_path):
        config = write_config(tmp_path)
        for command in ("explore", "collect", "refine"):
            run_cli(capsys, command, "--config", str(config), "--run", "r1")
        code, out, _ = run_cli(capsys, "refine", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK
        assert "judged 0 trajectories: 0 kept, 0 repaired, 0 dropped" in out

    def test_budget_stop_continues_under_a_larger_cap(self, capsys, tmp_path):
        def oracle(budget: str) -> dict:
            return {"backend": "mock", "mock_script": str(SHOP_MOCK), "budget_usd": budget}

        config = write_config(tmp_path, oracle=oracle("0.01"))
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_RUNTIME
        assert "of 0.01 budget" in err
        ledger_path = tmp_path / "runs" / "r1" / "ledger.json"
        spent = json.loads(ledger_path.read_text())["total_cost_usd"]

        config = write_config(tmp_path, oracle=oracle("5"))
        code, out, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r1")
        assert code == cli.EXIT_OK, err
        assert "explored 1 site(s): 15 tasks, 18 triplets" in out
        ledger = json.loads(ledger_path.read_text())
        assert ledger["budget_usd"] == "5"
        # The stopped attempt's spend is kept, not forgotten.
        assert Decimal(ledger["total_cost_usd"]) > Decimal(spent) > 0


    def test_manifest_records_the_seed_explore_used(self, capsys, tmp_path):
        config = write_config(tmp_path)
        for command, seed in (("explore", "7"), ("collect", "7"), ("refine", "7"),
                              ("export", "99")):
            code, _, err = run_cli(
                capsys, command, "--config", str(config), "--run", "r", "--seed", seed
            )
            assert code == cli.EXIT_OK, err
        manifest = json.loads((tmp_path / "runs" / "r" / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_explore_cannot_resume_under_another_seed(self, capsys, tmp_path):
        config = write_config(tmp_path)
        code, _, _ = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_OK
        run = tmp_path / "runs" / "r"
        before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        code, _, err = run_cli(
            capsys, "explore", "--config", str(config), "--run", "r", "--seed", "8"
        )
        assert code == cli.EXIT_USAGE
        assert "explored with seed 7" in err
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before


class TestWorkers:
    def test_worker_count_changes_nothing_but_order(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run_all_stages(capsys, config, "w1", workers="1")
        run_all_stages(capsys, config, "w4", workers="4")
        runs = tmp_path / "runs"

        def lines(run_id: str, name: str) -> set[str]:
            return set((runs / run_id / name).read_text().splitlines())

        for name in ("tasks.jsonl", "trajectories_raw.jsonl", "judgments.jsonl"):
            assert lines("w1", name) == lines("w4", name), name
        m1 = json.loads((runs / "w1" / "dataset" / "manifest.json").read_text())
        m4 = json.loads((runs / "w4" / "dataset" / "manifest.json").read_text())
        assert m1["content_hash"] == m4["content_hash"]

    def test_same_seed_runs_are_byte_identical(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run_cli(capsys, "explore", "--config", str(config), "--run", "a")
        run_cli(capsys, "explore", "--config", str(config), "--run", "b")
        runs = tmp_path / "runs"
        for name in ("tasks.jsonl", "triplets.jsonl"):
            assert (runs / "a" / name).read_bytes() == (runs / "b" / name).read_bytes()


class TestFlags:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("synthweaver ")

    def test_mock_flag_overrides_http_backend(self, capsys, tmp_path):
        config = write_config(
            tmp_path,
            oracle={"backend": "http", "endpoint_url": "http://127.0.0.1:1/v1"},
        )
        code, out, _ = run_cli(
            capsys, "explore", "--config", str(config), "--run", "r1",
            "--mock", str(SHOP_MOCK),
        )
        assert code == cli.EXIT_OK
        assert "15 tasks" in out

    def test_export_window_flag(self, capsys, tmp_path):
        config = write_config(tmp_path)
        for command in ("explore", "collect", "refine"):
            run_cli(capsys, command, "--config", str(config), "--run", "r1")
        run_cli(capsys, "export", "--config", str(config), "--run", "r1")
        manifest = tmp_path / "runs" / "r1" / "dataset" / "manifest.json"
        wide = json.loads(manifest.read_text())
        code, _, _ = run_cli(
            capsys, "export", "--config", str(config), "--run", "r1", "--window", "1"
        )
        assert code == cli.EXIT_OK
        narrow = json.loads(manifest.read_text())
        assert wide["window"] == 3
        assert narrow["window"] == 1
        assert narrow["content_hash"] != wide["content_hash"]

    def test_stats_flags(self, capsys, tmp_path):
        config = write_config(tmp_path)
        for command in ("explore", "collect", "refine"):
            run_cli(capsys, command, "--config", str(config), "--run", "r1")
        stats_path = tmp_path / "runs" / "r1" / "stats.json"

        code, _, _ = run_cli(
            capsys, "stats", "--config", str(config), "--run", "r1", "--no-diversity"
        )
        assert code == cli.EXIT_OK
        stats = json.loads(stats_path.read_text())
        assert "diversity" not in stats

        code, _, _ = run_cli(
            capsys, "stats", "--config", str(config), "--run", "r1", "--judge-quality"
        )
        assert code == cli.EXIT_OK
        stats = json.loads(stats_path.read_text())
        assert stats["quality"]["overall"] == {"mean_score": 80.0, "n_judged": 14}
        assert stats["quality"]["by_site"]["shop"]["n_judged"] == 14


class TestExitCodes:
    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "explore", "--config", str(tmp_path / "nope.json"), "--run", "r"
        )
        assert code == cli.EXIT_USAGE
        assert "error:" in err

    def test_api_key_in_config_is_usage_error(self, capsys, tmp_path):
        config = write_config(
            tmp_path,
            oracle={"backend": "mock", "mock_script": str(SHOP_MOCK), "api_key": "sk-x"},
        )
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert "environment" in err

    def test_bad_mock_schema_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mock.json"
        bad.write_text(json.dumps({"schema_version": 2, "rules": []}))
        config = write_config(
            tmp_path, oracle={"backend": "mock", "mock_script": str(bad)}
        )
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert "error:" in err

    def test_missing_mock_script_is_usage_error(self, capsys, tmp_path):
        config = write_config(tmp_path)
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(
            capsys, "explore", "--config", str(config), "--run", "r", "--mock", str(missing)
        )
        assert code == cli.EXIT_USAGE
        assert f"{missing}: file not found" in err

    def test_mock_script_that_is_not_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mock.json"
        bad.write_text("{not json")
        config = write_config(tmp_path, oracle={"backend": "mock", "mock_script": str(bad)})
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"{bad}: invalid JSON" in err

    @pytest.mark.parametrize("defect,where", [
        (lambda script: [], "top level must be an object"),
        (lambda script: {**script, "default_usage": {"prompt_tokens": 1, "cached_tokens": 2}},
         "default_usage: "),
        (lambda script: {**script, "rules": [{**rule, "usage": {"tokens": 5}}
                                             for rule in script["rules"]]},
         "rules[0].usage: "),
        (lambda script: with_rule(script, when=["x"]), "rules[0].when: "),
        (lambda script: with_rule(script, when={"url": 5}), "rules[0].when: "),
        (lambda script: with_rule(script, scope=3), "rules[0].scope: "),
        (lambda script: with_rule(script, template=None), "rules[0].template: "),
        (lambda script: with_rule(script, reply=None, replies=[]), "rules[0].replies: "),
        (lambda script: with_rule(script, reply=None, raws="x"), "rules[0].raws: "),
        (lambda script: with_rule(script, raw="x"), "rules[0]: needs exactly one of"),
        (lambda script: with_rule(script, reply=None), "rules[0]: needs exactly one of"),
        (lambda script: with_rule(script, fingerprint="ab"), "rules[0]: unknown keys: fingerprint"),
        (lambda script: with_rule(script, whne={"url": "*"}), "rules[0]: unknown keys: whne"),
        (lambda script: {**script, "schema_version": True}, "schema_version: True, "),
        (lambda script: {**script, "schema_version": 1.0}, "schema_version: 1.0, "),
        (lambda script: {**script, "schema_version": "1"}, "schema_version: '1', "),
        (lambda script: {**script, "schema_version": None}, "schema_version: None, "),
    ], ids=["top_level_list", "default_usage_key", "rule_usage_key", "when_list",
            "when_pattern_int", "scope_int", "template_missing", "replies_empty", "raws_string",
            "two_replies", "no_reply", "rule_key_fingerprint", "rule_key_misspelt",
            "version_true", "version_float", "version_string", "version_null"])
    def test_malformed_mock_script_is_usage_error(self, capsys, tmp_path, defect, where):
        bad = tmp_path / "bad.mock.json"
        bad.write_text(json.dumps(defect(json.loads(SHOP_MOCK.read_text()))))
        config = write_config(tmp_path, oracle={"backend": "mock", "mock_script": str(bad)})
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"{bad}: {where}" in err
        assert not (tmp_path / "runs" / "r" / "ledger.json").exists()

    @pytest.mark.parametrize("name,command", [
        ("state.json", "explore"), ("state.json", "export"),
    ])
    def test_run_document_that_is_not_an_object_is_usage_error(
        self, capsys, tmp_path, name, command
    ):
        config = write_config(tmp_path)
        for stage in ("explore", "collect", "refine", "export"):
            code, _, _ = run_cli(capsys, stage, "--config", str(config), "--run", "r")
            assert code == cli.EXIT_OK
        document = tmp_path / "runs" / "r" / name
        document.write_text("[]")
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"{document}: top level must be an object" in err

    @pytest.mark.parametrize("name,field,value,command", [
        ("state.json", "explored_sites", 5, "explore"),
        ("state.json", "seed", "7", "export"),
        ("ledger.json", "calls", "x", "collect"),
        ("ledger.json", "total_cost_usd", "lots", "collect"),
        ("ledger.json", "total_cost_usd", "NaN", "collect"),
        ("ledger.json", "total_cost_usd", "sNaN", "collect"),
        ("ledger.json", "total_cost_usd", "Infinity", "collect"),
        ("ledger.json", "total_cost_usd", "-1", "collect"),
        ("ledger.json", "budget_usd", "NaN", "collect"),
        ("ledger.json", "by_site_stage", {"shop": {"explore": "NaN"}}, "collect"),
        ("ledger.json", "by_site_stage", {"shop": {"explore": "-1"}}, "collect"),
        ("ledger.json", "calls", True, "collect"),
        ("ledger.json", "calls", 3.7, "collect"),
        ("ledger.json", "calls", -4, "collect"),
        ("ledger.json", "prompt_tokens", -4, "collect"),
        ("ledger.json", "completion_tokens", True, "collect"),
    ])
    def test_run_document_field_of_wrong_type_is_usage_error(
        self, capsys, tmp_path, name, field, value, command
    ):
        # With a budget, a NaN spend once passed the load and failed the
        # budget check with a traceback, after `stage.start` was written.
        config = write_config(
            tmp_path, oracle={"backend": "mock", "mock_script": str(SHOP_MOCK), "budget_usd": "5"}
        )
        code, _, _ = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_OK
        run = tmp_path / "runs" / "r"
        document = run / name
        document.write_text(json.dumps({**json.loads(document.read_text()), field: value}))
        before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"{document}: {field}: " in err
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("name", ["ledger.json", "state.json"])
    @pytest.mark.parametrize("command", ["collect", "stats"])
    def test_run_document_that_does_not_decode_is_usage_error(
        self, capsys, tmp_path, name, command
    ):
        config = write_config(tmp_path)
        for stage in ("explore", "collect", "refine", "export"):
            code, _, _ = run_cli(capsys, stage, "--config", str(config), "--run", "r")
            assert code == cli.EXIT_OK
        document = tmp_path / "runs" / "r" / name
        document.write_text('{"torn": ')
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"{document}: invalid JSON" in err

    @pytest.mark.parametrize("category,value", [
        ("Account Management", "x"),         # a click has no value slot
        ("Search & Filters", "usb ] cable"),  # no value may hold ']'
    ])
    def test_probe_that_breaks_the_grammar_skips_the_page(
        self, capsys, tmp_path, category, value
    ):
        script = json.loads(SHOP_MOCK.read_text())
        script["rules"][0]["reply"]["Categorization"][category][0]["value"] = value
        mock = tmp_path / "bad.mock.json"
        mock.write_text(json.dumps(script))
        config = write_config(tmp_path, oracle={"backend": "mock", "mock_script": str(mock)})
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_OK, err
        events = tmp_path / "runs" / "r" / "events.jsonl"
        failed = [record["url"] for record in map(json.loads, events.read_text().splitlines())
                  if record["kind"] == "explore.categorize_failed"]
        assert failed == ["https://shop.example.com/"]

    @pytest.mark.parametrize("case", [
        "config is a directory", "mock is a directory", "graph is empty",
        "config is not UTF-8",
    ])
    def test_input_file_that_cannot_be_read_is_usage_error(self, capsys, tmp_path, case):
        config, flags, bad = write_config(tmp_path), [], tmp_path
        if case == "config is a directory":
            config = tmp_path
        elif case == "mock is a directory":
            flags = ["--mock", str(tmp_path)]
        elif case == "graph is empty":
            # An empty path resolves to the config file's directory.
            raw = json.loads(config.read_text())
            raw["sites"][0]["graph"] = ""
            config.write_text(json.dumps(raw))
        else:
            config.write_bytes(b'{"seed": "\xff"}')
            bad = config
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r", *flags)
        assert code == cli.EXIT_USAGE
        assert f"error: {bad}: " in err

    @pytest.mark.parametrize("name,command", [
        ("trajectories_raw.jsonl", "refine"), ("judgments.jsonl", "export"),
    ])
    @pytest.mark.parametrize("defect", ["5", "{}", "fly [x]"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_misshapen_record_is_usage_error(
        self, capsys, tmp_path, finished_run, name, command, defect, where
    ):
        run = tmp_path / "runs" / "r"
        shutil.copytree(finished_run, run)
        path = run / name
        lines = path.read_text().splitlines(keepends=True)
        if defect == "fly [x]":
            # A raw step's action, or a judgment's end, that does not parse.
            record = json.loads(lines[0])
            if name == "judgments.jsonl":
                record["end"] = defect
            else:
                record["steps"][0]["action"] = defect
            defect = canonical_json(record)
        path.write_text("".join([defect + "\n", *lines] if where == "first"
                                else [*lines, defect + "\n"]))
        config = write_config(tmp_path)
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"error: {path}: " in err

    @pytest.mark.parametrize("name,command", [
        ("trajectories_raw.jsonl", "refine"), ("trajectories_raw.jsonl", "stats"),
        ("trajectories_raw.jsonl", "export"),
    ])
    def test_trajectory_without_steps_is_usage_error(
        self, capsys, tmp_path, finished_run, name, command
    ):
        run = tmp_path / "runs" / "r"
        shutil.copytree(finished_run, run)
        path = run / name
        first, *rest = path.read_text().splitlines(True)
        record = {**json.loads(first), "steps": []}
        path.write_text("".join([canonical_json(record) + "\n", *rest]))
        before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        config = write_config(tmp_path)
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert err == (f"error: {path}: a record does not have the expected shape "
                       f"(ValueError: trajectory {record['task']['id']} has no steps)\n")
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("command", ["export", "stats"])
    @pytest.mark.parametrize("edit,shown", [
        ({"decision": "refine", "order": [0, -1]},
         "EditContractViolation: order [0, -1] names a step not recorded"),
        ({"decision": "refine", "order": [0, 0, 1, 2]},
         "EditContractViolation: order [0, 0, 1, 2] names a step twice"),
        ({"decision": "refine", "end": "modify"},
         "InvalidAction: none requires a non-empty value"),
        ({"decision": "refine", "order": [0]},
         "EditContractViolation: edited trajectory does not end in a final answer"),
    ], ids=["order out of range", "repeated step", "empty answer", "no final answer"])
    def test_judgment_that_does_not_apply_is_usage_error(
        self, capsys, tmp_path, finished_run, command, edit, shown
    ):
        run = tmp_path / "runs" / "r"
        shutil.copytree(finished_run, run)
        path = run / "judgments.jsonl"
        first, *rest = path.read_text().splitlines(True)
        path.write_text("".join([canonical_json({**json.loads(first), **edit}) + "\n", *rest]))
        before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        config = write_config(tmp_path)
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert err == f"error: {path}: a record does not have the expected shape ({shown})\n"
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before

    def test_decoder_error_names_the_record_file(self, capsys, tmp_path, finished_run):
        run = tmp_path / "runs" / "r"
        shutil.copytree(finished_run, run)
        config = write_config(tmp_path)
        observations = run / "observations.jsonl"
        observations.write_text("".join(observations.read_text().splitlines(True)[1:]))
        code, _, err = run_cli(capsys, "stats", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert err.startswith(f"error: {run / 'trajectories_raw.jsonl'}: observation_ref: ")

        shutil.copytree(finished_run, run, dirs_exist_ok=True)
        tasks = run / "tasks.jsonl"
        first, *rest = tasks.read_text().splitlines(True)
        record = json.loads(first)
        del record["site"]
        tasks.write_text("".join([canonical_json(record) + "\n", *rest]))
        code, _, err = run_cli(capsys, "collect", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert err == (f"error: {tasks}: a record does not have the expected shape "
                       "(KeyError: 'site')\n")

    def test_unmatched_mock_reply_is_runtime_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.mock.json"
        empty.write_text(json.dumps({"schema_version": 1, "rules": []}))
        config = write_config(
            tmp_path, oracle={"backend": "mock", "mock_script": str(empty)}
        )
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_RUNTIME
        assert "error:" in err

    def test_corrupt_record_file_is_usage_error(self, capsys, tmp_path):
        config = write_config(tmp_path)
        run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        tasks = tmp_path / "runs" / "r" / "tasks.jsonl"
        lines = tasks.read_text().splitlines(keepends=True)
        tasks.write_text("".join(lines[:3] + ["{not json\n"] + lines[3:]))
        code, _, err = run_cli(capsys, "collect", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert "tasks.jsonl: line 4 " in err

    @pytest.mark.parametrize("key,bad", [
        ("transport_retries", "x"), ("max_tokens", "many"),
        ("transport_retries", 0), ("reparse_attempts", -1),
    ])
    def test_bad_oracle_number_is_usage_error(self, capsys, tmp_path, monkeypatch, key, bad):
        # Each once escaped as a traceback, failed every call after 0
        # attempts, or sent no call yet reported success.
        served = []
        monkeypatch.setattr(MockTransport, "complete", lambda self, prompt: served.append(prompt))
        config = write_config(
            tmp_path, oracle={"backend": "mock", "mock_script": str(SHOP_MOCK), key: bad}
        )
        code, _, err = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert f"oracle.{key} must be" in err
        assert served == []

    def test_ledger_without_site_stage_map_is_usage_error(self, capsys, tmp_path):
        config = write_config(tmp_path)
        code, _, _ = run_cli(capsys, "explore", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_OK
        # The ledger format of runs made before per-(site, stage) accounting.
        ledger_path = tmp_path / "runs" / "r" / "ledger.json"
        ledger = json.loads(ledger_path.read_text())
        del ledger["by_site_stage"]
        ledger.update(by_site={"shop": ledger["total_cost_usd"]},
                      by_stage={"explore": ledger["total_cost_usd"]})
        ledger_path.write_text(json.dumps(ledger))
        code, _, err = run_cli(capsys, "collect", "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        assert "by_site_stage" in err

    @pytest.mark.parametrize("command", ["explore", "collect", "refine", "export", "stats"])
    @pytest.mark.parametrize("found", ["absent", "1", "2", "3", "5", "inline_observations"])
    def test_run_of_another_format_is_rejected(
        self, capsys, tmp_path, finished_run, command, found
    ):
        run = tmp_path / "runs" / "r"
        shutil.copytree(finished_run, run)
        if found == "inline_observations":
            with_inline_observations(run)
        else:
            restamp(run, None if found == "absent" else int(found))
        before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        config = write_config(tmp_path)
        code, _, err = run_cli(capsys, command, "--config", str(config), "--run", "r")
        assert code == cli.EXIT_USAGE
        shown = "absent" if found == "inline_observations" else found
        assert err.startswith(f"error: {run / 'state.json'}: schema_version: {shown}, ")
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("command", ["collect", "refine", "export", "stats"])
    @pytest.mark.parametrize("run", [["--run", "typo"], []], ids=["mistyped", "absent"])
    def test_run_that_does_not_exist_is_usage_error(self, capsys, tmp_path, command, run):
        config = write_config(tmp_path)
        code, out, err = run_cli(capsys, command, "--config", str(config), *run)
        assert code == cli.EXIT_USAGE
        assert f"error: run directory {tmp_path / 'runs'}/" in err
        assert "does not exist" in err and out == ""
        assert not (tmp_path / "runs").exists()

    def test_config_is_checked_before_the_run(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "collect", "--config", str(tmp_path / "nope.json"), "--run", "typo"
        )
        assert code == cli.EXIT_USAGE
        assert "nope.json" in err and "run directory" not in err

    def test_bad_workers_is_usage_error(self, capsys, tmp_path):
        config = write_config(tmp_path)
        code, _, err = run_cli(
            capsys, "explore", "--config", str(config), "--run", "r", "--workers", "0"
        )
        assert code == cli.EXIT_USAGE
        assert "error: workers must be at least 1, got 0" in err

    def test_negative_window_is_usage_error(self, capsys, tmp_path):
        config = write_config(tmp_path)
        for command in ("explore", "collect", "refine"):
            code, _, _ = run_cli(capsys, command, "--config", str(config), "--run", "r")
            assert code == cli.EXIT_OK
        code, _, err = run_cli(
            capsys, "export", "--config", str(config), "--run", "r", "--window", "-1"
        )
        assert code == cli.EXIT_USAGE
        assert "--window" in err
