import csv
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bluehop
from bluehop import scenario_path
from bluehop.cli import TRACE_FORMATTERS, main, trace_line
from bluehop.scenario import validate_scenario
from bluehop.simkernel import Engine
from test_fuzz import scenario_specs


class TestRun:
    def test_relay_scenario_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", scenario_path("figure4.json"), "--seed", "7", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["delivery_ratio"] == 1.0
        assert report["hops"]["max"] == 2
        lines = (out / "trace.ndjson").read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        with open(out / "deliveries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["outcome"] == "delivered"
        assert rows[0]["hops"] == "2"
        assert rows[0]["retries"] == "0"  # ack arrived before the deadline

    def test_norelay_scenario_fails_cleanly(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", scenario_path("figure4_norelay.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["delivery_ratio"] == 0.0
        assert report["failed"] == {"no-route": 1}  # the endpoints are out of range

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", scenario_path("figure4.json"), "--seed", "7", "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "trace.ndjson").read_bytes() == (b / "trace.ndjson").read_bytes()
        assert (a / "deliveries.csv").read_bytes() == (b / "deliveries.csv").read_bytes()


def test_importing_the_cli_loads_no_openssl():
    # hashlib's import loads OpenSSL (_hashlib), about 3.5 MB of every run's
    # peak RSS; random seeds from a text with the interpreter's own SHA-512.
    src = str(Path(bluehop.__file__).resolve().parents[1])
    code = "import sys, bluehop.cli; print(sorted({'bluehop', '_hashlib'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "['bluehop']\n"


# The standard-library modules the package imports by name.
STDLIB_IMPORTED = ("__future__", "argparse", "collections", "collections.abc", "csv", "enum",
                   "functools", "gc", "heapq", "itertools", "json", "math", "os", "pathlib",
                   "random", "sys")


def test_importing_the_cli_adds_only_bluehop_modules_to_what_it_names():
    # Without site (python -S), which may load typing or importlib.resources
    # for a .pth file, the package's own modules are all that importing the
    # CLI may add: a helper such as dataclasses loads inspect, ast, dis and
    # tokenize into every run.
    src = str(Path(bluehop.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {', '.join(STDLIB_IMPORTED)}; "
            "before = set(sys.modules); import bluehop.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    added = out.split()
    assert "bluehop.cli" in added
    assert [m for m in added if m.partition(".")[0] != "bluehop"] == []


class TestStreamedTrace:
    @settings(max_examples=15, deadline=None)
    @given(scenario_specs(), st.integers(0, 3))
    def test_streamed_trace_equals_the_in_memory_trace(self, spec, first):
        # Every kind the fuzz draws, the shared encoder's included.
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
            path.write_text(json.dumps(spec))
            assert main(["run", str(path), "--seed", str(first), "--out", str(out)]) == 0
            _, trace = Engine(validate_scenario(spec), first).run()
            assert (out / "trace.ndjson").read_text() == "".join(map(trace_line, trace))

    def test_memory_stays_flat_with_the_horizon(self, tmp_path):
        # A run holds no trace, so 4x the records (4,248 -> 16,848) must not
        # take 4x the memory.
        def peak(horizon):
            scenario = tmp_path / "line.json"
            scenario.write_text(json.dumps({
                "horizon": horizon,
                "protocol": {"t_adv": 0.01},
                "nodes": [{"id": i, "x": 5 * i, "y": 0, "class": 3} for i in range(6)],
            }))
            tracemalloc.start()
            try:
                assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1.0)  # one-time allocations (imports, caches) land in this run
        short, long = peak(1.0), peak(4.0)
        assert long <= 1.5 * short, (short, long)


class TestTablesAndTopo:
    def test_tables_dump(self, capsys):
        assert main(["tables", scenario_path("line5.json"), "--at", "1.0"]) == 0
        dump = json.loads(capsys.readouterr().out)
        table0 = {e["dest"]: e["cost"] for e in dump[0]["entries"]}
        assert table0 == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_topo_dump_geometric(self, capsys):
        assert main(["topo", scenario_path("figure4.json")]) == 0
        topo = json.loads(capsys.readouterr().out)
        assert topo["adjacency"]["1"] == [3]
        assert topo["adjacency"]["3"] == [1, 2]
        assert "scatternet" not in topo

    def test_topo_dump_scatternet(self, capsys):
        assert main(["topo", scenario_path("churn25.json")]) == 0
        topo = json.loads(capsys.readouterr().out)
        assert "scatternet" in topo
        for pico in topo["scatternet"]["piconets"]:
            assert len(pico["active_slaves"]) <= 7

    @pytest.mark.parametrize("argv,dump", [
        (["tables", scenario_path("churn25.json"), "--at", "2.5"], "routing_tables_json"),
        (["topo", scenario_path("churn25.json")], "topo_json"),
    ], ids=["tables", "topo"])
    def test_a_dump_keeps_no_trace_record(self, argv, dump, monkeypatch, capsys):
        engines = []
        original = getattr(Engine, dump)

        def spy(engine):
            engines.append(engine)
            return original(engine)

        monkeypatch.setattr(Engine, dump, spy)
        assert main(argv) == 0
        [engine] = engines
        assert next(engine._record_seq) > 0  # the run emitted records ...
        assert list(engine.trace) == []      # ... and the dump kept none


class TestExitCodes:
    def test_validation_error_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": 1.0, "nodes": [], "bogus": 1}))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_is_exit_one(self, tmp_path):
        assert main(["run", "/no/such.json", "--out", str(tmp_path / "o")]) == 1

    def test_non_utf8_file_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"horizon": 1.0, "nodes": [], "x": "\xff"}')
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_file_is_exit_one(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", str(deep), "--out", str(tmp_path / "o")]) == 1
        assert "nests too deeply" in capsys.readouterr().err

    def test_overlong_integer_is_exit_one(self, tmp_path, capsys):
        # Past sys.get_int_max_str_digits() (4300 by default) json raises ValueError.
        huge = tmp_path / "huge.json"
        huge.write_text('{"horizon": 1' + "0" * 5000 + ', "nodes": []}')
        assert main(["run", str(huge), "--out", str(tmp_path / "o")]) == 1
        assert "unreadable JSON" in capsys.readouterr().err

    def test_integer_beyond_float_range_is_exit_one(self, tmp_path, capsys):
        # Within json's digit limit, but too large for a float.
        huge = tmp_path / "huge.json"
        huge.write_text('{"horizon": 1.0, "nodes": [{"id": 0, "x": 1' + "0" * 400
                        + ', "y": 0, "class": 3}]}')
        out = tmp_path / "o"
        assert main(["run", str(huge), "--out", str(out)]) == 1
        assert "nodes[0].x: expected a finite number (metres)" in capsys.readouterr().err
        assert not out.exists()

    def test_payload_no_run_can_allocate_is_exit_one(self, tmp_path, capsys):
        # Once a message of this size is sent, the payload generator raises.
        scenario = tmp_path / "huge_payload.json"
        scenario.write_text(json.dumps({
            "horizon": 1.0,
            "nodes": [{"id": 0, "x": 0, "y": 0, "class": 3}, {"id": 1, "x": 5, "y": 0, "class": 3}],
            "traffic": [{"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 10**30}],
        }))
        out = tmp_path / "o"
        assert main(["run", str(scenario), "--out", str(out)]) == 1
        assert ("traffic[0].payload_bytes: payload exceeds the 65536-byte limit"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_running_out_of_memory_names_the_error(self, tmp_path, monkeypatch, capsys):
        # MemoryError() has no text of its own.
        def run(engine, until=None):
            raise MemoryError()

        monkeypatch.setattr(Engine, "run", run)
        assert main(["run", scenario_path("figure4.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "runtime error: MemoryError\n"

    def test_runtime_error_is_exit_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the output directory should go")
        assert main(["run", scenario_path("figure4.json"), "--out", str(blocker)]) == 2

    def test_runtime_error_mid_run_leaves_no_trace(self, tmp_path, monkeypatch):
        rounds = []
        adv_round = Engine._on_adv_round

        def failing_round(engine):
            rounds.append(engine.now)
            if len(rounds) == 2:
                raise RuntimeError("advertisement round failed")
            adv_round(engine)

        monkeypatch.setattr(Engine, "_on_adv_round", failing_round)
        out = tmp_path / "out"
        assert main(["run", scenario_path("figure4.json"), "--out", str(out)]) == 2
        assert len(rounds) == 2
        assert list(out.glob("*")) == []  # no trace, partial or whole, and no other artifact

    @pytest.mark.parametrize("argv", [
        ["run", "figure4.json", "--seeds", "0..1", "--out", "o"],
        ["tables", "line5.json", "--at", "1.0", "--seed", "3"],
        ["topo", "churn25.json", "--seed", "3"],
    ], ids=["run-seeds", "tables-seed", "topo-seed"])
    def test_an_option_that_changes_no_output_is_unknown(self, argv, tmp_path, monkeypatch, capsys):
        # The seed chooses only payloads, seals and hop channels: a sweep
        # repeats one network, and the dumps show none of them.
        monkeypatch.chdir(tmp_path)
        command, name, *rest = argv
        with pytest.raises(SystemExit) as exc:
            main([command, scenario_path(name), *rest])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("at", ["nan", "inf", "-1", "x", "1e303"])
    def test_bad_time_is_usage_error(self, at, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", scenario_path("line5.json"), "--at", at])
        assert exc.value.code == 2
        assert "--at" in capsys.readouterr().err

    def test_delivery_after_source_reboot(self, tmp_path):
        # The source power-cycles while its first message is on air, so that
        # frame is lost; the rebooted source has learnt no route to node 2 by
        # its first retry, and its second retry delivers.
        scenario = tmp_path / "reboot.json"
        scenario.write_text(json.dumps({
            "horizon": 1.0,
            "nodes": [
                {"id": 0, "x": 0, "y": 0, "class": 3},
                {"id": 1, "x": 8, "y": 0, "class": 3},
                {"id": 2, "x": 16, "y": 0, "class": 3},
            ],
            "traffic": [
                {"time": 0.1, "src": 0, "dst": 2, "payload_bytes": 20},
                {"time": 0.5, "src": 0, "dst": 2, "payload_bytes": 20},
            ],
            "actions": [
                {"time": 0.1002, "node": 0, "action": "set_state", "state": "off"},
                {"time": 0.1004, "node": 0, "action": "set_state", "state": "active"},
            ],
        }))
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        with open(out / "deliveries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert (rows[0]["outcome"], rows[0]["latency_us"], rows[0]["retries"]) == (
            "delivered", "201875", "2")

    def test_rebooted_source_still_resolves_its_message(self, tmp_path):
        # The destination is out of range, so the message can only fail; the
        # source power-cycles between its send and its first ack deadline.
        scenario = tmp_path / "reboot_unreachable.json"
        scenario.write_text(json.dumps({
            "horizon": 3.0,
            "nodes": [
                {"id": 0, "x": 0, "y": 0, "class": 3},
                {"id": 1, "x": 8, "y": 0, "class": 3},
                {"id": 2, "x": 30, "y": 0, "class": 3},
            ],
            "traffic": [{"time": 0.1, "src": 0, "dst": 2, "payload_bytes": 20}],
            "actions": [
                {"time": 0.15, "node": 0, "action": "set_state", "state": "off"},
                {"time": 0.16, "node": 0, "action": "set_state", "state": "active"},
            ],
        }))
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pending"] == 0
        assert report["failed"] == {"no-route": 1}  # node 0 never has a route to node 2
        trace = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
        assert sum(r["kind"] == "ack_timeout" for r in trace) == 4
        with open(out / "deliveries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["retries"] == "3"


ints = st.integers(-(2**70), 2**70)
half_us = st.integers(0, 2**62).map(lambda h: h // 2 if h % 2 == 0 else h / 2)
hexes = st.binary(max_size=40).map(bytes.hex)
ctrls = st.sampled_from(["advertisement", "withdraw", "discovery_request"])


@st.composite
def details(draw, required, optional=()):
    """A detail dict with the required keys in order, then each optional key or not."""
    detail = {key: draw(values) for key, values in required}
    for key, values in optional:
        if draw(st.booleans()):
            detail[key] = draw(values)
    return detail


def _ids(*keys):
    return [(key, ints) for key in keys]


DETAILS = {
    "ctrl_sent": details(_ids("to") + [("ctrl", ctrls)], [("channel", ints)]),
    "ctrl_rx": details(_ids("from") + [("ctrl", ctrls)], [("target", ints)]),
    "data_tx": details(_ids("to", "msg_id", "fragment", "slots"), [("channel", ints)]),
    "data_rx": details(
        _ids("from", "msg_id", "fragment") + [("payload", hexes), ("hop_trace", st.lists(ints))]
    ),
    "ack_tx": details(_ids("to", "msg_id"), [("channel", ints)]),
    "ack_rx": details(_ids("msg_id", "from")),
    "msg_send": details(_ids("msg_id", "dst", "bytes", "fragments") + [("plaintext", hexes)]),
    "delivery": details(
        _ids("msg_id", "src", "bytes", "hops")
        + [("latency_us", half_us), ("retries", ints), ("plaintext", hexes)]
    ),
    "ack_timeout": details(_ids("msg_id", "retries_left")),
    "discovery": details(_ids("target")),
    "drop": details(
        _ids("msg_id", "fragment") + [("class", st.sampled_from(["forward-failure", "ttl-drop"]))]
    ),
    "adv_timer": st.just({}),
    "motion": st.just({}),
}

json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def records(draw, kinds, detail_of):
    """A trace record with its keys in emission order."""
    kind = draw(st.sampled_from(kinds))
    return {
        "t_us": draw(half_us),
        "seq": draw(st.integers(0, 2**63)),
        "kind": kind,
        "node": draw(st.none() | ints),
        "detail": draw(detail_of(kind)),
    }


class TestTraceLine:
    def test_every_formatted_kind_is_drawn(self):
        assert set(DETAILS) == set(TRACE_FORMATTERS)

    # Every example draws one record of each kind, so each kind's optional
    # fields are drawn both ways.
    @given(data=st.data())
    def test_formatted_kinds_encode_like_json_dumps(self, data):
        for kind in sorted(DETAILS):
            record = data.draw(records([kind], DETAILS.get), label=kind)
            assert trace_line(record) == json.dumps(record, separators=(",", ":")) + "\n"

    @given(records(["scatternet", "packet_lost", "state_change", "\u00e9\"kind\n"],
                   lambda kind: st.dictionaries(st.text(), json_values, max_size=4)))
    def test_other_kinds_encode_like_json_dumps(self, record):
        assert trace_line(record) == json.dumps(record, separators=(",", ":")) + "\n"
