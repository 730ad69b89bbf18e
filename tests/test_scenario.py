import json
import math

import pytest
from hypothesis import given, strategies as st

from bluehop.scenario import (
    CLASS_DEFAULT_RANGE,
    CLASS_RANGE_BANDS,
    MAX_MESSAGES,
    MAX_NODES,
    MAX_PAYLOAD_BYTES,
    MAX_PAYLOAD_TOTAL,
    ScenarioError,
    parse_scenario,
    sec_to_hus,
    validate_scenario,
)
from bluehop.scatternet import LinkMode
from bluehop.simkernel import Engine
from bluehop.topology import NodeState


def minimal(**extra):
    data = {"horizon": 1.0, "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "class": 3}]}
    data.update(extra)
    return data


def errors_of(data):
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(data)
    return exc.value.errors


class TestAccepts:
    def test_minimal_scenario(self):
        config = validate_scenario(minimal())
        assert len(config.nodes) == 1
        assert config.link_mode is LinkMode.GEOMETRIC
        assert config.horizon_hus == sec_to_hus(1.0)

    def test_defaults(self):
        config = validate_scenario(minimal())
        assert config.protocol.t_adv_hus == 2_000_000
        assert config.protocol.t_ack_hus == 200_000
        assert config.protocol.retries == 3
        assert config.protocol.inf == 16
        assert config.rate_multiplier == 1

    def test_full_scenario(self):
        data = minimal(
            link_mode="scatternet",
            rate_multiplier=3,
            protocol={"t_adv": 0.5, "t_ack": 0.2, "retries": 5, "inf": 12},
        )
        data["nodes"].append(
            {
                "id": 1,
                "x": 3.0,
                "y": 0.0,
                "class": 2,
                "range": 20.0,
                "state": "parked",
                "waypoints": [[0.5, 1.0, 1.0], [0.9, 2.0, 2.0]],
            }
        )
        data["traffic"] = [
            {"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 64, "count": 3, "interval": 0.1}
        ]
        data["actions"] = [
            {"time": 0.5, "node": 1, "action": "set_state", "state": "active"},
            {"time": 0.9, "node": 0, "action": "withdraw"},
        ]
        config = validate_scenario(data)
        assert config.protocol.inf == 12
        assert config.nodes[1].state is NodeState.PARKED
        assert config.traffic[0].count == 3
        assert config.actions[1].action == "withdraw"


class TestClassRange:
    def test_defaults(self):
        nodes = [{"id": c, "x": 0.0, "y": 0.0, "class": c} for c in (1, 2, 3)]
        config = validate_scenario({"horizon": 1.0, "nodes": nodes})
        assert [n.range_m for n in config.nodes] == [100.0, 30.0, 10.0]

    def test_override_within_band(self):
        data = with_node("class", 2)
        data["nodes"][0]["range"] = 20
        assert validate_scenario(data).nodes[0].range_m == 20.0

    def test_override_outside_band_rejected(self):
        data = with_node("range", 50.0)
        assert errors_of(data) == ["nodes[0].range: class 3 range must lie in [5.0, 10.0] m"]

    def test_class_must_be_an_integer(self):
        # A JSON true equals 1 and 2.0 equals 2, but neither names a class.
        nodes = [
            {"id": 0, "x": 0, "y": 0, "class": True},
            {"id": 1, "x": 0, "y": 0, "class": 2.0},
        ]
        assert errors_of({"horizon": 1.0, "nodes": nodes}) == [
            "nodes[0].class: expected device class 1, 2 or 3",
            "nodes[1].class: expected device class 1, 2 or 3",
        ]


class TestRejects:
    def test_node_count_cap(self):
        data = {
            "horizon": 1.0,
            "nodes": [
                {"id": i, "x": float(i), "y": 0.0, "class": 3} for i in range(256)
            ],
        }
        msgs = errors_of(data)
        assert any("255-node limit" in m for m in msgs)

    def test_unknown_top_level_field(self):
        assert any("unknown field" in m for m in errors_of(minimal(spice=1)))

    def test_unknown_node_field(self):
        data = minimal()
        data["nodes"][0]["colour"] = "blue"
        assert any("nodes[0].colour" in m for m in errors_of(data))

    def test_traffic_referencing_missing_node_names_the_entry(self):
        data = minimal(traffic=[{"time": 0.1, "src": 0, "dst": 9, "payload_bytes": 1}])
        msgs = errors_of(data)
        assert any("traffic[0].dst" in m and "nonexistent" in m for m in msgs)

    def test_traffic_to_self_rejected(self):
        data = minimal(traffic=[{"time": 0.1, "src": 0, "dst": 0, "payload_bytes": 1}])
        assert any("must differ" in m for m in errors_of(data))

    def test_all_errors_collected(self):
        data = {
            "horizon": -1,
            "mystery": True,
            "nodes": [
                {"id": 0, "x": "far", "y": 0.0, "class": 7},
                {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
            ],
        }
        msgs = errors_of(data)
        assert len(msgs) >= 4
        assert any("horizon" in m for m in msgs)
        assert any("duplicate node id" in m for m in msgs)
        assert any("nodes[0].x" in m for m in msgs)
        assert any("nodes[0].class" in m for m in msgs)

    def test_duplicate_ids(self):
        data = minimal()
        data["nodes"].append({"id": 0, "x": 1.0, "y": 1.0, "class": 3})
        assert any("duplicate" in m for m in errors_of(data))

    def test_waypoints_must_increase(self):
        data = minimal()
        data["nodes"][0]["waypoints"] = [[1.0, 0.0, 0.0], [1.0, 2.0, 2.0]]
        assert any("strictly increasing" in m for m in errors_of(data))

    def test_times_beyond_horizon(self):
        data = minimal(traffic=[{"time": 5.0, "src": 0, "dst": 0, "payload_bytes": 1}])
        assert any("beyond the horizon" in m for m in errors_of(data))

    def test_range_outside_class_band(self):
        data = minimal()
        data["nodes"][0]["range"] = 99.0
        assert any("band" in m or "[5" in m for m in errors_of(data))

    def test_action_without_state(self):
        data = minimal(actions=[{"time": 0.1, "node": 0, "action": "set_state"}])
        assert any("state" in m for m in errors_of(data))

    def test_id_out_of_range(self):
        data = minimal()
        data["nodes"][0]["id"] = 255
        assert any("[0, 254]" in m for m in errors_of(data))


# One scenario with errors in every section, and the exact diagnostics it
# yields, in order. Any change to the validator's walk must keep them.
EVERY_SECTION = {
    "horizon": 0,
    "mystery": True,
    "link_mode": "mesh",
    "rate_multiplier": 0,
    "protocol": {"t_adv": 0, "t_ack": -1, "retries": 1.5, "inf": 1, "jitter": 2},
    "nodes": [
        7,
        {"id": 0, "x": "far", "y": math.nan, "class": 4, "range": 3.0, "state": "asleep",
         "waypoints": [[1.0, 0.0, 0.0], [0.5, 1.0, 1.0], [-1, 0, 0], "x"], "colour": "blue"},
        {"id": 0, "x": 0.0, "y": 0.0, "class": 3, "range": 50.0},
        {"id": 300, "x": 0.0, "y": 0.0, "class": 1, "waypoints": {}},
        {"id": 1, "x": 0, "y": 0, "class": 2, "range": "wide"},
    ],
    "traffic": [
        "burst",
        {"time": 2.0, "src": 0, "dst": 0, "payload_bytes": -1, "count": 0,
         "interval": -0.1, "qos": 1},
        {"time": "soon", "src": "a", "dst": 9, "payload_bytes": 10},
    ],
    "actions": [
        None,
        {"time": -0.1, "node": 9, "action": "explode", "why": "x"},
        {"time": 0.1, "node": 0, "action": "set_state", "state": "asleep"},
        {"time": 0.1, "node": 0, "action": "withdraw", "state": "off"},
    ],
}
_POSITIVE = "expected a positive number of seconds, 0.5 us or more once rounded"
EVERY_SECTION_ERRORS = [
    "mystery: unknown field",
    f"horizon: {_POSITIVE}",
    "link_mode: expected 'geometric' or 'scatternet', got 'mesh'",
    "rate_multiplier: expected a positive integer",
    "protocol.jitter: unknown field",
    f"protocol.t_adv: {_POSITIVE}",
    f"protocol.t_ack: {_POSITIVE}",
    "protocol.retries: expected a non-negative integer",
    "protocol.inf: expected an integer cost cap >= 2",
    "nodes[0]: expected an object",
    "nodes[1].colour: unknown field",
    "nodes[1].x: expected a finite number (metres)",
    "nodes[1].y: expected a finite number (metres)",
    "nodes[1].class: expected device class 1, 2 or 3",
    "nodes[1].state: unknown state 'asleep'",
    "nodes[1].waypoints[1]: waypoint times must be strictly increasing, 0.5 us apart or more",
    "nodes[1].waypoints[2]: waypoint time must be non-negative",
    "nodes[1].waypoints[3]: expected [time_s, x, y]",
    "nodes[2].id: duplicate node id 0",
    "nodes[2].range: class 3 range must lie in [5.0, 10.0] m",
    "nodes[3].id: expected an integer in [0, 254]",
    "nodes[3].waypoints: expected a list of [time, x, y]",
    "nodes[4].range: expected a finite number (metres)",
    "traffic[0]: expected an object",
    "traffic[1].qos: unknown field",
    "traffic[1].dst: src and dst must differ",
    "traffic[1].payload_bytes: expected a non-negative integer byte count",
    "traffic[1].count: expected a positive integer",
    "traffic[1].interval: expected a non-negative number of seconds",
    "traffic[2].time: expected a non-negative number of seconds",
    "traffic[2].src: expected an integer node id for src",
    "traffic[2].dst: dst references nonexistent node id 9",
    "actions[0]: expected an object",
    "actions[1].why: unknown field",
    "actions[1].time: expected a non-negative number of seconds",
    "actions[1].node: node references nonexistent node id 9",
    "actions[1].action: expected 'set_state' or 'withdraw'",
    "actions[2].state: unknown state 'asleep'",
    "actions[3].state: withdraw takes no state",
]
LISTS_AND_LIMITS = {
    "zeta": 0,
    "horizon": 1.0,
    "alpha": 0,
    "protocol": [],
    "nodes": [{"id": i % 255, "x": float(i), "y": 0.0, "class": 3} for i in range(256)],
    "traffic": [{"time": 1.5, "src": 0, "dst": 1, "payload_bytes": 1}],
    "actions": "later",
}
LISTS_AND_LIMITS_ERRORS = [
    "alpha: unknown field",
    "zeta: unknown field",
    "protocol: expected an object",
    "nodes: 256 nodes exceeds the 255-node limit",
    "nodes[255].id: duplicate node id 0",
    "traffic[0].time: time 1.5 s lies beyond the horizon",
    "actions: expected a list",
]


class TestExactDiagnostics:
    def test_every_section(self):
        assert errors_of(EVERY_SECTION) == EVERY_SECTION_ERRORS

    def test_lists_and_limits(self):
        assert errors_of(LISTS_AND_LIMITS) == LISTS_AND_LIMITS_ERRORS

    def test_missing_sections(self):
        assert errors_of({}) == ["horizon: required field missing", "nodes: required list missing"]
        assert errors_of({"horizon": 1.0, "nodes": {}, "traffic": {}, "actions": {}}) == [
            "nodes: required list missing",
            "traffic: expected a list",
            "actions: expected a list",
        ]


def with_node(field, value):
    data = minimal()
    data["nodes"][0][field] = value
    return data


class TestTimeGranularity:
    # The kernel's clock counts whole half-microseconds (0.5 us); 1e-7 s
    # rounds to none of them.
    @pytest.mark.parametrize("field", ["t_adv", "t_ack"])
    def test_protocol_period_rounding_to_zero(self, field):
        msgs = errors_of(minimal(protocol={field: 1e-7}))
        assert any(m.startswith(f"protocol.{field}:") for m in msgs)

    def test_horizon_rounding_to_zero(self):
        assert any(m.startswith("horizon:") for m in errors_of(minimal(horizon=1e-7)))

    def test_waypoint_times_colliding_once_rounded(self):
        data = with_node("waypoints", [[1.0, 0.0, 0.0], [1.0 + 1e-7, 2.0, 2.0]])
        assert any("strictly increasing" in m for m in errors_of(data))

    def test_one_half_microsecond_is_accepted(self):
        data = minimal(horizon=5e-7, protocol={"t_adv": 5e-7, "t_ack": 5e-7})
        data["nodes"][0]["waypoints"] = [[0.0, 0.0, 0.0], [5e-7, 1.0, 1.0]]
        config = validate_scenario(data)
        assert (config.horizon_hus, config.protocol.t_adv_hus, config.protocol.t_ack_hus) == (1, 1, 1)
        assert [t for t, _, _ in config.nodes[0].waypoints] == [0, 1]


class TestNonFinite:
    @pytest.mark.parametrize(
        "data,path",
        [
            (minimal(horizon=math.inf), "horizon"),
            (minimal(horizon=1e303), "horizon"),  # finite, but not in half-microseconds
            (minimal(protocol={"t_adv": math.nan}), "protocol.t_adv"),
            (with_node("x", math.nan), "nodes[0].x"),
            (with_node("y", -math.inf), "nodes[0].y"),
            (with_node("waypoints", [[math.inf, 0.0, 0.0]]), "nodes[0].waypoints[0]"),
            (minimal(actions=[{"time": math.nan, "node": 0, "action": "withdraw"}]), "actions[0].time"),
            # Integers too large for a float, which math.isfinite cannot take.
            (with_node("x", 10**400), "nodes[0].x"),
            (with_node("range", -(10**400)), "nodes[0].range"),
            (with_node("waypoints", [[10**400, 0.0, 0.0]]), "nodes[0].waypoints[0]"),
            (minimal(horizon=10**400), "horizon"),
            (minimal(horizon=10**303), "horizon"),  # fits a float, but not in half-microseconds
            (minimal(traffic=[{"time": 10**400, "src": 0, "dst": 0, "payload_bytes": 1}]),
             "traffic[0].time"),
        ],
    )
    def test_rejected(self, data, path):
        assert any(m.startswith(f"{path}:") for m in errors_of(data))


def flows(*fields):
    """Two nodes and one flow 0 -> 1 per ``fields`` dict, over a 1 s horizon."""
    data = minimal(traffic=[{"time": 0.0, "src": 0, "dst": 1, "payload_bytes": 1, **f}
                            for f in fields])
    data["nodes"].append({"id": 1, "x": 5.0, "y": 0.0, "class": 3})
    return data


_PAYLOAD_LIMIT = f"traffic[0].payload_bytes: payload exceeds the {MAX_PAYLOAD_BYTES}-byte limit"
_MESSAGE_LIMIT = f"traffic: the flows send more than {MAX_MESSAGES} messages by the horizon"
_BYTES_LIMIT = f"traffic: the flows send more than {MAX_PAYLOAD_TOTAL} payload bytes by the horizon"
_INF_LIMIT = f"protocol.inf: expected a cost cap of at most {MAX_NODES}, the node limit"
_FULL = MAX_PAYLOAD_TOTAL // MAX_PAYLOAD_BYTES  # full-size messages that fill the byte limit


class TestLimits:
    """Each limit accepts its value and rejects one past it with its own diagnostic."""

    @pytest.mark.parametrize("data", [
        flows({"payload_bytes": MAX_PAYLOAD_BYTES}),
        minimal(protocol={"inf": MAX_NODES}),
        flows({"count": MAX_MESSAGES}),
        flows({"count": MAX_MESSAGES - 1}, {"time": 0.5}),
        # 10 us apart from 10 us on, 100,000 repetitions fit the 1 s horizon.
        flows({"time": 1e-5, "count": 10**30, "interval": 1e-5}),
        flows({"payload_bytes": MAX_PAYLOAD_BYTES, "count": _FULL}),
        flows({"payload_bytes": MAX_PAYLOAD_BYTES, "count": _FULL - 1},
              {"payload_bytes": MAX_PAYLOAD_BYTES - 1}, {}),
        # Messages due after the horizon are never sent, so they count for nothing.
        flows({"time": 0.5, "payload_bytes": MAX_PAYLOAD_BYTES, "count": 10**30, "interval": 1.0},
              {"count": MAX_MESSAGES - 1}),
    ], ids=["payload", "inf", "messages", "messages-across-flows", "messages-by-interval",
            "bytes", "bytes-across-flows", "past-the-horizon"])
    def test_at_the_limit(self, data):
        validate_scenario(data)

    @pytest.mark.parametrize("data,error", [
        (flows({"payload_bytes": MAX_PAYLOAD_BYTES + 1}), _PAYLOAD_LIMIT),
        (flows({"payload_bytes": 10**30}), _PAYLOAD_LIMIT),
        (minimal(protocol={"inf": MAX_NODES + 1}), _INF_LIMIT),
        (flows({"count": MAX_MESSAGES + 1}), _MESSAGE_LIMIT),
        (flows({"count": MAX_MESSAGES}, {"time": 0.5}), _MESSAGE_LIMIT),
        (flows({"count": 10**30, "interval": 1e-5}), _MESSAGE_LIMIT),
        (flows({"payload_bytes": MAX_PAYLOAD_BYTES, "count": _FULL + 1}), _BYTES_LIMIT),
        (flows({"payload_bytes": MAX_PAYLOAD_BYTES, "count": _FULL - 1},
               {"payload_bytes": MAX_PAYLOAD_BYTES}, {}), _BYTES_LIMIT),
    ], ids=["payload", "payload-1e30", "inf", "messages", "messages-across-flows",
            "messages-by-interval", "bytes", "bytes-across-flows"])
    def test_one_past_the_limit(self, data, error):
        assert errors_of(data) == [error]


class TestSpecRecords:
    def test_records_are_immutable(self):
        data = minimal(
            traffic=[{"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 1}],
            actions=[{"time": 0.2, "node": 1, "action": "set_state", "state": "off"}],
        )
        data["nodes"].append({"id": 1, "x": 1.0, "y": 0.0, "class": 3})
        config = validate_scenario(data)
        for record, field in ((config.nodes[0], "x"), (config.traffic[0], "count"),
                              (config.actions[0], "state")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_every_state_is_read_by_its_name(self):
        names = ["active", "idle", "parked", "sniffing", "off"]
        nodes = [{"id": i, "x": 0.0, "y": 0.0, "class": 3, "state": name}
                 for i, name in enumerate(names)]
        config = validate_scenario({"horizon": 1.0, "nodes": nodes})
        assert [n.state for n in config.nodes] == [NodeState(name) for name in names]
        assert [n.state.value for n in config.nodes] == names


# JSON-like values, weighted toward the numbers that break naive checks.
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 300),
    st.sampled_from([0.0, 1e-7, 2.4e-7, 2.6e-7, 5e-7, 1e-300, 1e303, 0.5, 1.0]),
    # Integers beyond float range, and one whose half-microseconds are.
    st.sampled_from([10**400, -(10**400), 2**1024, 10**303]),
)
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
NODE = st.fixed_dictionaries(
    {"id": st.integers(0, 4) | JSON, "x": NUMBERS, "y": NUMBERS, "class": st.sampled_from([1, 2, 3]) | JSON},
    optional={
        "range": NUMBERS,
        "state": st.sampled_from(["active", "off", "parked"]) | JSON,
        "waypoints": st.lists(st.lists(NUMBERS, min_size=3, max_size=3) | JSON, max_size=3),
    },
)
SCENARIO = st.fixed_dictionaries(
    {"horizon": NUMBERS, "nodes": st.lists(NODE, max_size=4)},
    optional={
        "link_mode": st.sampled_from(["geometric", "scatternet"]) | JSON,
        "rate_multiplier": st.integers(0, 4) | JSON,
        "protocol": st.fixed_dictionaries(
            {}, optional={"t_adv": NUMBERS, "t_ack": NUMBERS, "retries": NUMBERS, "inf": NUMBERS}
        ),
        "traffic": st.lists(
            st.fixed_dictionaries(
                {"time": NUMBERS, "src": st.integers(0, 4), "dst": st.integers(0, 4),
                 "payload_bytes": NUMBERS},
                optional={"count": NUMBERS, "interval": NUMBERS},
            ),
            max_size=2,
        ),
        "actions": st.lists(
            st.fixed_dictionaries(
                {"time": NUMBERS, "node": st.integers(0, 4),
                 "action": st.sampled_from(["set_state", "withdraw"]) | JSON},
                optional={"state": st.sampled_from(["active", "off"]) | JSON},
            ),
            max_size=2,
        ),
    },
)


@given(SCENARIO | JSON)
def test_validation_is_total(data):
    # Either every problem is reported or the engine accepts the config; the
    # engine is only built, never run, so no input can stall the suite.
    try:
        config = validate_scenario(data)
    except ScenarioError:
        return
    Engine(config, 0)


# Nodes valid apart from their range and waypoint times, so that many
# examples are accepted and reach the engine's node model.
TIMES = st.sampled_from([0.0, 1e-7, 2.4e-7, 2.6e-7, 5e-7, 1e-6, 0.5]) | st.floats(0, 2)
COORDS = st.floats(-50, 50)
RADIO_NODES = st.lists(
    st.fixed_dictionaries(
        {"x": COORDS, "y": COORDS, "class": st.sampled_from([1, 2, 3])},
        optional={
            "range": st.none() | st.floats(0, 150) | st.sampled_from([5.0, 10.0, 15.0, 40.0, 100.0]),
            "waypoints": st.lists(st.tuples(TIMES, COORDS, COORDS).map(list), max_size=3),
        },
    ),
    min_size=1,
    max_size=4,
)


@given(RADIO_NODES)
def test_accepted_nodes_keep_band_and_order(nodes):
    # The node model checks nothing itself, so every accepted node must keep
    # its class band, and its motion path must start at t=0 and move forward.
    data = {"horizon": 1.0, "nodes": [{"id": i, **n} for i, n in enumerate(nodes)]}
    try:
        config = validate_scenario(data)
    except ScenarioError:
        return
    engine = Engine(config, 0)
    for raw in data["nodes"]:
        node = engine.world[raw["id"]]
        lo, hi = CLASS_RANGE_BANDS[raw["class"]]
        assert lo <= node.range_m <= hi
        if raw.get("range") is None:
            assert node.range_m == CLASS_DEFAULT_RANGE[raw["class"]]
        times = [t for t, _ in node.path]
        assert times == sorted(set(times))
        assert not times or times[0] == 0


class TestParseFile:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal()))
        config = parse_scenario(str(path))
        assert config.nodes[0].id == 0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(str(path))
        assert any("malformed JSON" in m for m in exc.value.errors)

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            parse_scenario("/no/such/file.json")
