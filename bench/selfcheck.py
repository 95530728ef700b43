"""Counter self-check: a traced run of the shop fixture must report known counts.

Usage (from the repository root):

    python3 bench/selfcheck.py

Runs all five stages on ``tests/fixtures/shop.{site,mock}.json`` with seed 7
and one worker under the benchmark's tracer, and compares the counts the
spans report with the counts of that fixture. A mismatch means a wrapper no
longer hooks the call site the program uses. Exits 0 when every count
matches.
"""

from __future__ import annotations

import json
import shutil
import sys
from decimal import Decimal

from run import SRC, WORK, Env, run_pipeline

FIXTURES = SRC.parent / "tests" / "fixtures"

EXPECTED = {
    "ledger.calls": 183,
    "ledger.tokens": 155550,
    "ledger.usd": Decimal("0.4758"),
    "explore.categorize": 7,
    "explore.propose_task": 18,
    "collect.next_action": 78,
    "collect.refine_task": 64,
    "collect.observe": 270,
    "refine.refine_trajectory": 15,
    "export.records": 44,
    "export.observations": 13,
    "export.observation_refs": 99,
}


def measured_counts() -> dict[str, object]:
    sys.path.insert(0, str(SRC))
    from synthweaver.config import load_config
    from tracing import Tracer

    work = WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = {
        "seed": 7,
        "workers": 1,
        "runs_dir": str(work / "runs"),
        "oracle": {"backend": "mock", "mock_script": str(FIXTURES / "shop.mock.json")},
        "sites": [{
            "name": "shop",
            "graph": str(FIXTURES / "shop.site.json"),
            "intro": "MegaShop is a small online store selling electronics and health products.",
            "task_examples": ["Find the return policy for electronics purchases"],
        }],
    }
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = Env(config=load_config(work / "config.json"))
    tracer = Tracer()
    tracer.install()
    try:
        [run] = run_pipeline(env, work / "runs" / "shop", tracer)
    finally:
        tracer.remove()
    ledger = json.loads((run.run_dir / "ledger.json").read_text())

    def count(name: str, stage: str, extra: object = None) -> int:
        return sum(
            1 for s in tracer.spans
            if s[2] == name and s[3] == stage and extra in (None, s[6])
        )

    calls = "oracle.client.call"
    export = run.results["export"]
    try:
        return {
            "ledger.calls": ledger["calls"],
            "ledger.tokens": ledger["prompt_tokens"] + ledger["completion_tokens"],
            "ledger.usd": Decimal(ledger["total_cost_usd"]).quantize(Decimal("0.0001")),
            "explore.categorize": count(calls, "explore", "categorize"),
            "explore.propose_task": count(calls, "explore", "propose_task"),
            "collect.next_action": count(calls, "collect", "next_action"),
            "collect.refine_task": count(calls, "collect", "refine_task"),
            "collect.observe": count("environment.observe", "collect"),
            "refine.refine_trajectory": count(calls, "refine", "refine_trajectory"),
            "export.records": export.n_records,
            "export.observations": export.n_observations,
            "export.observation_refs": count("dataset.observation_ref", "export"),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    counts = measured_counts()
    bad = 0
    for name, expected in EXPECTED.items():
        ok = counts[name] == expected
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name:28s} {counts[name]} (expected {expected})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
