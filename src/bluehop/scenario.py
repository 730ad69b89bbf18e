"""Scenario files: schema, exhaustive validation, and loading.

A scenario is a JSON object describing nodes (placement, class, state,
waypoints), the link mode, protocol knobs, scripted traffic and state
actions, and the simulation horizon. Validation is total: a file either
yields a config or the complete list of diagnostics, never a partial run.
Every default and limit is resolved here: a node's device class becomes a
plain range in metres, and times in seconds become integer half-microseconds.
"""
from __future__ import annotations

import json
import sys
from collections import namedtuple

from . import routing
from .scatternet import LinkMode
from .topology import NodeState

HUS_PER_SECOND = 2_000_000

MAX_NODES = 255
NODE_ID_MAX = 254

# What one file may ask a run to carry: the bytes of one message, and the
# messages and payload bytes due by the horizon, summed across flows. The
# pools and probes send at most 2,000 B a message and 200 messages, the
# acceptance throughput check sends 17,000, and a kernel test schedules a
# flow of 100,000. A queued message holds about 3.5 KB and a payload byte
# about 12 B: 100,000 messages of 41 B between two nodes at one instant peak
# near 400 MB.
MAX_PAYLOAD_BYTES = 65_536
MAX_MESSAGES = 100_000
MAX_PAYLOAD_TOTAL = 4 * 1024 * 1024

# Range is the only radio property the run reads. Each device class has a
# default range in metres, and a scenario may override it inside the band.
CLASS_DEFAULT_RANGE = {1: 100.0, 2: 30.0, 3: 10.0}
CLASS_RANGE_BANDS = {1: (40.0, 100.0), 2: (15.0, 30.0), 3: (5.0, 10.0)}

_NODE_FIELDS = {"id", "x", "y", "class", "range", "state", "waypoints"}
_TRAFFIC_FIELDS = {"time", "src", "dst", "payload_bytes", "count", "interval"}
_ACTION_FIELDS = {"time", "node", "action", "state"}
_PROTOCOL_FIELDS = {"t_adv", "t_ack", "retries", "inf"}
_TOP_FIELDS = {
    "nodes",
    "link_mode",
    "protocol",
    "traffic",
    "actions",
    "horizon",
    "rate_multiplier",
}

DEFAULT_T_ADV_S = 1.0
DEFAULT_T_ACK_S = 0.1
DEFAULT_RETRIES = 3

# The kernel counts integer half-microseconds, so a period or horizon that
# rounds to zero of them would never advance the clock.
_POSITIVE_SECONDS = "expected a positive number of seconds, 0.5 us or more once rounded"

# A number must fit a float, whose largest finite value this is.
_FLOAT_MAX = sys.float_info.max

# Each state by the name a scenario file gives it.
_STATES = {state.value: state for state in NodeState}


class ScenarioError(ValueError):
    """Carries every validation diagnostic found in a scenario file."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def sec_to_hus(seconds: float) -> int:
    return round(seconds * HUS_PER_SECOND)


# The validated records, immutable. Positions and ranges are float metres, times
# integer half-microseconds, a waypoint is (time_hus, x, y), ``state`` is a
# NodeState (None for a withdraw action) and ``action`` is "set_state" or
# "withdraw".
NodeSpec = namedtuple("NodeSpec", "id x y range_m state waypoints")
TrafficSpec = namedtuple("TrafficSpec", "time_hus src dst payload_bytes count interval_hus")
ActionSpec = namedtuple("ActionSpec", "time_hus node action state")
ProtocolParams = namedtuple("ProtocolParams", "t_adv_hus t_ack_hus retries inf")
ScenarioConfig = namedtuple(
    "ScenarioConfig", "nodes horizon_hus link_mode protocol traffic actions rate_multiplier"
)


def _is_num(v) -> bool:
    """A finite int or float, not a bool.

    An int too large for a float is not finite (``math.isfinite`` would raise
    ``OverflowError`` on it), and an exact float or int skips the isinstance
    checks.
    """
    cls = v.__class__
    return (
        (cls is float or cls is int or isinstance(v, (int, float)) and not isinstance(v, bool))
        and -_FLOAT_MAX <= v <= _FLOAT_MAX
    )


def _hus(seconds) -> int | None:
    """Non-negative ``seconds`` as integer half-microseconds, else None."""
    if not _is_num(seconds) or seconds < 0:
        return None
    hus = seconds * HUS_PER_SECOND
    return round(hus) if -_FLOAT_MAX <= hus <= _FLOAT_MAX else None


def _is_int(v) -> bool:
    return v.__class__ is int or isinstance(v, int) and not isinstance(v, bool)


def _state(name) -> NodeState | None:
    """The state a scenario file names, or None."""
    return _STATES.get(name) if isinstance(name, str) else None


def validate_scenario(data) -> ScenarioConfig:
    """Validate a parsed JSON object, collecting every error before failing.

    An item that passes costs only its checks: a diagnostic's path and text
    are formatted only in the branch that reports it.
    """
    errors: list[str] = []

    def err(path: str, message: str) -> None:
        errors.append(f"{path}: {message}")

    def unknown(prefix: str, raw: dict, fields: set[str]) -> None:
        for key in sorted(raw.keys() - fields):
            err(f"{prefix}{key}", "unknown field")

    def objects(key: str, items, fields: set[str], not_list: str = "expected a list"):
        """Yield (index, object) for each entry of list ``key``, reporting the rest."""
        if not isinstance(items, list):
            err(key, not_list)
            return
        for i, raw in enumerate(items):
            if not isinstance(raw, dict):
                err(f"{key}[{i}]", "expected an object")
                continue
            if not raw.keys() <= fields:
                unknown(f"{key}[{i}].", raw, fields)
            yield i, raw

    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected a JSON object"])

    if not data.keys() <= _TOP_FIELDS:
        unknown("", data, _TOP_FIELDS)

    horizon = data.get("horizon")
    horizon_hus = _hus(horizon)
    if horizon is None:
        err("horizon", "required field missing")
    elif not horizon_hus:
        err("horizon", _POSITIVE_SECONDS)

    link_mode = LinkMode.GEOMETRIC
    mode_raw = data.get("link_mode", "geometric")
    if mode_raw not in ("geometric", "scatternet"):
        err("link_mode", f"expected 'geometric' or 'scatternet', got {mode_raw!r}")
    else:
        link_mode = LinkMode(mode_raw)

    rate_multiplier = data.get("rate_multiplier", 1)
    if not _is_int(rate_multiplier) or rate_multiplier < 1:
        err("rate_multiplier", "expected a positive integer")
        rate_multiplier = 1

    protocol = None  # built once every knob is valid
    proto_raw = data.get("protocol", {})
    if not isinstance(proto_raw, dict):
        err("protocol", "expected an object")
    else:
        if not proto_raw.keys() <= _PROTOCOL_FIELDS:
            unknown("protocol.", proto_raw, _PROTOCOL_FIELDS)
        t_adv = proto_raw.get("t_adv", DEFAULT_T_ADV_S)
        t_ack = proto_raw.get("t_ack", DEFAULT_T_ACK_S)
        retries = proto_raw.get("retries", DEFAULT_RETRIES)
        inf = proto_raw.get("inf", routing.INF)
        t_adv_hus, t_ack_hus = _hus(t_adv), _hus(t_ack)
        if not t_adv_hus:
            err("protocol.t_adv", _POSITIVE_SECONDS)
        if not t_ack_hus:
            err("protocol.t_ack", _POSITIVE_SECONDS)
        if not _is_int(retries) or retries < 0:
            err("protocol.retries", "expected a non-negative integer")
        if not _is_int(inf) or inf < 2:
            err("protocol.inf", "expected an integer cost cap >= 2")
        elif inf > MAX_NODES:
            # No route has more hops than the node limit allows, 254.
            err("protocol.inf", f"expected a cost cap of at most {MAX_NODES}, the node limit")
        if not errors:
            protocol = ProtocolParams(t_adv_hus, t_ack_hus, retries, inf)

    nodes: list[NodeSpec] = []
    seen_ids: set[int] = set()
    nodes_raw = data.get("nodes")
    if isinstance(nodes_raw, list) and len(nodes_raw) > MAX_NODES:
        err("nodes", f"{len(nodes_raw)} nodes exceeds the {MAX_NODES}-node limit")
    for i, raw in objects("nodes", nodes_raw, _NODE_FIELDS, "required list missing"):
        nid = raw.get("id")
        if not _is_int(nid) or not (0 <= nid <= NODE_ID_MAX):
            err(f"nodes[{i}].id", f"expected an integer in [0, {NODE_ID_MAX}]")
            nid = None
        elif nid in seen_ids:
            err(f"nodes[{i}].id", f"duplicate node id {nid}")
            nid = None
        else:
            seen_ids.add(nid)
        x, y = raw.get("x"), raw.get("y")
        if not _is_num(x):
            err(f"nodes[{i}].x", "expected a finite number (metres)")
        if not _is_num(y):
            err(f"nodes[{i}].y", "expected a finite number (metres)")
        class_id = raw.get("class")
        if not (_is_int(class_id) and class_id in (1, 2, 3)):
            err(f"nodes[{i}].class", "expected device class 1, 2 or 3")
            class_id = None
        range_m = raw.get("range")
        if range_m is None:
            range_m = CLASS_DEFAULT_RANGE.get(class_id)
        elif not _is_num(range_m):
            err(f"nodes[{i}].range", "expected a finite number (metres)")
        elif class_id is not None:
            lo, hi = CLASS_RANGE_BANDS[class_id]
            if not (lo <= range_m <= hi):
                err(f"nodes[{i}].range", f"class {class_id} range must lie in [{lo}, {hi}] m")
        state_raw = raw.get("state", "active")
        state = _state(state_raw)
        if state is None:
            err(f"nodes[{i}].state", f"unknown state {state_raw!r}")
        waypoints: list[tuple[int, float, float]] = []
        wps_raw = raw.get("waypoints", [])
        if not isinstance(wps_raw, list):
            err(f"nodes[{i}].waypoints", "expected a list of [time, x, y]")
            wps_raw = []
        last_hus = None
        for j, wp in enumerate(wps_raw):
            if not (
                isinstance(wp, list)
                and len(wp) == 3
                and _is_num(wp[0]) and _is_num(wp[1]) and _is_num(wp[2])
            ):
                err(f"nodes[{i}].waypoints[{j}]", "expected [time_s, x, y]")
                continue
            t, wx, wy = wp
            t_hus = _hus(t)
            if t_hus is None:
                err(f"nodes[{i}].waypoints[{j}]", "waypoint time must be non-negative")
            elif last_hus is not None and t_hus <= last_hus:
                err(f"nodes[{i}].waypoints[{j}]",
                    "waypoint times must be strictly increasing, 0.5 us apart or more")
            last_hus = t_hus
            waypoints.append((t_hus, float(wx), float(wy)))
        if nid is not None and not errors:
            nodes.append(
                NodeSpec(nid, float(x), float(y), float(range_m), state, tuple(waypoints))
            )

    def check_ref(key: str, i: int, label: str, nid) -> bool:
        """Whether ``nid`` names a node; the path's last part is ``label``."""
        if _is_int(nid) and nid in seen_ids:
            return True
        if not _is_int(nid):
            err(f"{key}[{i}].{label}", f"expected an integer node id for {label}")
        else:
            err(f"{key}[{i}].{label}", f"{label} references nonexistent node id {nid}")
        return False

    def check_time(key: str, i: int, t) -> int | None:
        t_hus = _hus(t)
        if t_hus is None:
            err(f"{key}[{i}].time", "expected a non-negative number of seconds")
            return None
        if horizon_hus and t_hus > horizon_hus:
            err(f"{key}[{i}].time", f"time {t} s lies beyond the horizon")
            return None
        return t_hus

    traffic: list[TrafficSpec] = []
    messages = payload_total = 0  # due by the horizon, summed across flows
    for i, raw in objects("traffic", data.get("traffic", []), _TRAFFIC_FIELDS):
        t_hus = check_time("traffic", i, raw.get("time"))
        src, dst = raw.get("src"), raw.get("dst")
        ok = check_ref("traffic", i, "src", src)
        ok &= check_ref("traffic", i, "dst", dst)
        if ok and src == dst:
            err(f"traffic[{i}].dst", "src and dst must differ")
            ok = False
        nbytes = raw.get("payload_bytes")
        if not _is_int(nbytes) or nbytes < 0:
            err(f"traffic[{i}].payload_bytes", "expected a non-negative integer byte count")
            ok = False
        elif nbytes > MAX_PAYLOAD_BYTES:
            err(f"traffic[{i}].payload_bytes",
                f"payload exceeds the {MAX_PAYLOAD_BYTES}-byte limit")
            ok = False
        count = raw.get("count", 1)
        if not _is_int(count) or count < 1:
            err(f"traffic[{i}].count", "expected a positive integer")
            ok = False
        interval_hus = _hus(raw.get("interval", 0))
        if interval_hus is None:
            err(f"traffic[{i}].interval", "expected a non-negative number of seconds")
            ok = False
        if ok and t_hus is not None:
            traffic.append(TrafficSpec(t_hus, src, dst, nbytes, count, interval_hus))
            if horizon_hus:
                # A repetition due after the horizon is never sent.
                if interval_hus:
                    count = min(count, (horizon_hus - t_hus) // interval_hus + 1)
                messages += count
                payload_total += count * nbytes
    if messages > MAX_MESSAGES:
        err("traffic", f"the flows send more than {MAX_MESSAGES} messages by the horizon")
    if payload_total > MAX_PAYLOAD_TOTAL:
        err("traffic",
            f"the flows send more than {MAX_PAYLOAD_TOTAL} payload bytes by the horizon")

    actions: list[ActionSpec] = []
    for i, raw in objects("actions", data.get("actions", []), _ACTION_FIELDS):
        t_hus = check_time("actions", i, raw.get("time"))
        node = raw.get("node")
        ok = check_ref("actions", i, "node", node)
        kind = raw.get("action")
        state = None
        if kind == "set_state":
            state_raw = raw.get("state")
            state = _state(state_raw)
            if state is None:
                err(f"actions[{i}].state", f"unknown state {state_raw!r}")
                ok = False
        elif kind == "withdraw":
            if "state" in raw:
                err(f"actions[{i}].state", "withdraw takes no state")
                ok = False
        else:
            err(f"actions[{i}].action", "expected 'set_state' or 'withdraw'")
            ok = False
        if ok and t_hus is not None:
            actions.append(ActionSpec(t_hus, node, kind, state))

    if errors:
        raise ScenarioError(errors)
    return ScenarioConfig(
        nodes=nodes,
        horizon_hus=horizon_hus,
        link_mode=link_mode,
        protocol=protocol,
        traffic=traffic,
        actions=actions,
        rate_multiplier=rate_multiplier,
    )


def parse_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: malformed JSON: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{path}: not UTF-8 text: {exc}"]) from exc
    except ValueError as exc:  # an integer literal longer than int's digit limit
        raise ScenarioError([f"{path}: unreadable JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ScenarioError([f"{path}: JSON nests too deeply"]) from exc
    return validate_scenario(data)
