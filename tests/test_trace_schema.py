"""The README's table of trace records is the trace schema.

Every record of the gallery runs and of fuzzed runs, in both link modes, has
a row: its detail holds the row's fields in order (a field marked ``?`` may
be absent, and ``a`` or ``b`` names exactly one of two), and its ``node`` is
null exactly where the row says ``null``.
"""
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from bluehop import metrics, scenario_path
from bluehop.cli import TRACE_FORMATTERS
from bluehop.scenario import validate_scenario
from bluehop.simkernel import run_scenario

from test_fuzz import scenario_specs

README = Path(__file__).resolve().parents[1] / "README.md"
GALLERY = ("churn25", "diamond_failover", "figure4", "figure4_norelay", "line5")
MODES = ("geometric", "scatternet")


def schema() -> dict:
    """kind -> (node is null, fields), where each field is (its names, optional)."""
    section = README.read_text().split("### Trace records", 1)[1]
    rows = [line for line in section.split("\n\n") if line.startswith("| kind |")][0]
    table = {}
    for line in rows.splitlines()[2:]:
        kind, node, fields = (cell.strip() for cell in line.strip("|").split("|")[:3])
        parsed = [] if fields == "none" else [
            (tuple(re.findall(r"`(\w+)`", item)), item.endswith("?"))
            for item in fields.split(", ")
        ]
        table[kind.strip("`")] = (node == "`null`", parsed)
    return table


SCHEMA = schema()


def follows(keys: list, fields: list) -> bool:
    """Whether ``keys`` are the row's ``fields`` in order, less absent optional ones."""
    rest = iter(keys)
    key = next(rest, None)
    for names, optional in fields:
        if key in names:
            key = next(rest, None)
        elif not optional:
            return False
    return key is None


def assert_schema(trace: list) -> None:
    for record in trace:
        assert record["kind"] in SCHEMA, record
        null, fields = SCHEMA[record["kind"]]
        assert (record["node"] is None) == null, record
        assert follows(list(record["detail"]), fields), record


def test_the_table_parses():
    assert all(all(names for names, _ in fields) for _, fields in SCHEMA.values())
    assert SCHEMA["packet_lost"][1][0] == (("to", "from"), False)
    assert SCHEMA["ctrl_rx"][1][-1] == (("target",), True)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", GALLERY)
def test_gallery_records_follow_the_table(name, mode):
    spec = json.loads(Path(scenario_path(f"{name}.json")).read_text())
    _, trace = run_scenario(validate_scenario(dict(spec, link_mode=mode)), 0)
    assert_schema(trace)


@settings(max_examples=25, deadline=None)
@given(scenario_specs())
def test_fuzzed_records_follow_the_table(spec):
    for mode in MODES:
        _, trace = run_scenario(validate_scenario(dict(spec, link_mode=mode)), 0)
        assert_schema(trace)


def test_every_row_is_a_kind_the_metrics_fold():
    m = metrics.Metrics()
    values = {"ctrl": "advertisement", "class": "retry-exhausted"}
    for kind in sorted(SCHEMA, key=lambda k: k != "msg_send"):  # a message's row first
        detail = {names[0]: values.get(names[0], 0) for names, _ in SCHEMA[kind][1]}
        metrics.record_event(m, {"t_us": 0, "seq": 0, "kind": kind, "node": 0, "detail": detail})


def test_every_formatted_kind_has_a_row():
    assert set(TRACE_FORMATTERS) <= set(SCHEMA)
