"""Tests of the benchmark itself: python3 -m pytest bench"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from bluehop import cli, routing, scatternet, simkernel  # noqa: E402
from bluehop.metrics import summarize  # noqa: E402
from bluehop.scenario import validate_scenario  # noqa: E402
from spans import SpanRecorder, self_seconds  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_generators_are_deterministic_per_seed_and_valid(workload):
    pool = workloads.scenarios(workload, 3)
    assert pool == workloads.scenarios(workload, 3)
    assert pool != workloads.scenarios(workload, 4)
    assert len(pool) == workloads.POOLS[workload][1]
    assert len({repr(s) for s in pool}) == len(pool)
    for scenario in pool:
        validate_scenario(scenario)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert self_seconds(parent, start, end) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children [1, 5] and [3, 7] cover [1, 7]; [9, 12] is clipped to [9, 10].
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 7.0, 12.0]
    assert self_seconds(parent, start, end)[0] == pytest.approx(3.0)


def test_recorder_sums_self_time_per_name():
    rec = SpanRecorder()
    rec.names = ["outer", "inner"]
    rec.name = [0, 1, 1, 0]
    rec.parent = [-1, 0, 0, -1]
    rec.start = [0.0, 1.0, 2.0, 10.0]
    rec.end = [5.0, 1.5, 3.0, 11.0]
    assert rec.calls() == {"outer": 2, "inner": 2}
    assert rec.self_times() == pytest.approx({"outer": 4.5, "inner": 1.5})


def _small_scenario() -> dict:
    return workloads.scatternet_churn(random.Random(0))


def test_wrappers_record_spans_and_are_removed_after_a_traced_run(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_small_scenario()))
    originals = (routing.process_advertisement, cli.summarize, simkernel.Engine.run,
                 scatternet.Scatternet.link_piconet, cli.main)
    rec = SpanRecorder()
    with rec.tracing(*run.trace_targets()):
        assert routing.process_advertisement is not originals[0]
        assert cli.summarize.span_wrapper
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert (routing.process_advertisement, cli.summarize, simkernel.Engine.run,
            scatternet.Scatternet.link_piconet, cli.main) == originals
    assert SpanRecorder.leftover(*run.trace_targets()) == []
    calls = rec.calls()
    assert calls["cli.main"] == 1
    assert calls["routing.process_advertisement"] > 0
    assert calls["scatternet.link_piconet"] > 0
    kinds = [k for k in rec.counts if k.startswith("simkernel.events.")]
    assert sum(rec.counts[k] for k in kinds) == rec.counts["simkernel.events"] > 0
    assert sum(rec.self_times().values()) == pytest.approx(rec.end[0] - rec.start[0])


def test_wrappers_are_removed_when_the_traced_run_raises():
    original = routing.process_advertisement
    with pytest.raises(RuntimeError):
        with SpanRecorder().tracing(*run.trace_targets()):
            raise RuntimeError("boom")
    assert routing.process_advertisement is original
    assert SpanRecorder.leftover(*run.trace_targets()) == []


def test_engine_digests_match_the_cli_artifacts(tmp_path):
    data = _small_scenario()
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    engine = simkernel.Engine(validate_scenario(data), 0)
    engine.run()
    assert run.engine_digests(summarize(engine.metrics), engine.trace) == (
        run.sha256_file(tmp_path / "report.json"), run.sha256_file(tmp_path / "trace.ndjson"))
