"""Run-level invariants over bounded random scenarios with power cycling."""
import copy
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bluehop import routing
from bluehop.cli import CSV_HEADER, trace_line
from bluehop.metrics import deliveries_from_trace, replay, summarize
from bluehop.scenario import NODE_ID_MAX, validate_scenario
from bluehop.simkernel import Engine, run_scenario


@st.composite
def scenario_specs(draw):
    """A scenario file's content: up to 10 nodes, traffic and power cycles."""
    n = draw(st.integers(2, 10))
    horizon_ms = draw(st.integers(200, 2000))
    ms = lambda lo=0, hi=horizon_ms: draw(st.integers(lo, hi)) / 1000
    nodes = [
        {"id": i, "x": draw(st.integers(0, 30)), "y": draw(st.integers(0, 30)), "class": 3}
        for i in range(n)
    ]
    traffic = []
    for _ in range(draw(st.integers(1, 4))):
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        traffic.append({
            "time": ms(),
            "src": src,
            "dst": dst,
            "payload_bytes": draw(st.integers(0, 400)),
            "count": draw(st.integers(1, 3)),
            "interval": ms(10, 300),
        })
    # Power cycles: the first always hits a traffic source, mid-run.
    sources = sorted({t["src"] for t in traffic})
    actions = []
    for k in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(sources if k == 0 else range(n)))
        off = draw(st.integers(0, horizon_ms))
        on = draw(st.integers(off, horizon_ms))
        actions += [
            {"time": off / 1000, "node": node, "action": "set_state", "state": "off"},
            {"time": on / 1000, "node": node, "action": "set_state", "state": "active"},
        ]
    return {
        "link_mode": draw(st.sampled_from(["geometric", "scatternet"])),
        "horizon": horizon_ms / 1000,
        "nodes": nodes,
        "traffic": traffic,
        "actions": actions,
    }


def scenarios():
    """The validated configs of ``scenario_specs``."""
    return scenario_specs().map(validate_scenario)


def ref_deliveries(trace):
    """Reference model: the per-message rows walked straight from the trace."""
    rows = {}
    for record in trace:
        kind, detail = record["kind"], record.get("detail") or {}
        if kind in ("msg_send", "msg_rejected"):
            rows[detail["msg_id"]] = {
                "msg_id": detail["msg_id"],
                "src": record["node"],
                "dst": detail["dst"],
                "bytes": detail["bytes"],
                "outcome": "pending" if kind == "msg_send" else "rejected",
                "hops": "",
                "latency_us": "",
                "retries": 0,
            }
        elif kind == "delivery":
            rows[detail["msg_id"]].update(
                outcome="delivered",
                hops=detail["hops"],
                latency_us=detail["latency_us"],
                retries=detail["retries"],
            )
        elif kind == "msg_failed":
            rows[detail["msg_id"]].update(outcome=detail["class"], retries=detail["retries"])
    return [rows[k] for k in sorted(rows)]


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.integers(0, 3))
def test_bounded_random_runs_keep_their_invariants(config, seed):
    m, trace = run_scenario(config, seed)
    assert replay(trace) == m
    rows = deliveries_from_trace(trace)
    # The rows folded online (what `bluehop run` writes) match a direct walk.
    assert rows == list(m.rows.values()) == ref_deliveries(trace)
    # `bluehop run` writes each row's values in order under CSV_HEADER.
    assert all(list(row) == CSV_HEADER for row in m.rows.values())
    pending = {r["msg_id"] for r in rows if r["outcome"] == "pending"}
    assert m.messages_sent == len(rows) == m.delivered + m.failed_total + len(pending)
    _, again = run_scenario(config, seed)
    assert json.dumps(again) == json.dumps(trace)
    # `bluehop run` writes each record as its compact json.dumps line.
    for record in trace:
        assert trace_line(record) == json.dumps(record, separators=(",", ":")) + "\n"
    # A message still pending at the horizon has an armed ack timer: it was
    # sent or timed out less than t_ack before the end.
    last_armed = {
        r["detail"]["msg_id"]: r["t_us"]
        for r in trace
        if r["kind"] in ("msg_send", "ack_timeout")
    }
    for msg_id in pending:
        assert config.horizon_hus - 2 * last_armed[msg_id] < config.protocol.t_ack_hus


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.integers(0, 3), st.data())
def test_a_resumed_run_equals_one_run(config, seed, data):
    stops = data.draw(st.lists(st.integers(0, config.horizon_hus), max_size=4))
    _, whole = run_scenario(config, seed)
    engine = Engine(config, seed)
    for t in sorted(stops):
        engine.run(until=t)
    _, trace = engine.run()
    assert json.dumps(trace) == json.dumps(whole)


def _uncached_next_hops(table, dest, links):
    fresh = copy.copy(table)
    fresh.hops, fresh.hops_links = {}, None
    return routing.next_hops(fresh, dest, links)


@settings(max_examples=25, deadline=None)
@given(scenario_specs(), st.integers(0, 3), st.integers(1, 20))
def test_queue_counts_and_cached_next_hops_match_a_recomputation(spec, seed, steps):
    for mode in ("geometric", "scatternet"):
        config = validate_scenario(dict(spec, link_mode=mode))
        engine = Engine(config, seed)
        for k in range(1, steps + 1):
            engine.run(until=config.horizon_hus * k // steps)
            for radio in engine.radios.values():
                # At most one advertisement per neighbour, each named in ``advs``.
                assert Counter(to for to, body in radio.txq if body is None) == Counter(radio.advs)
                queued = Counter(to for to, _ in radio.txq)
                assert {m: c for m, c in radio.depth.items() if c} == queued
            for n, runtime in engine.runtimes.items():
                table, links = runtime.table, engine.links[n]
                for dest in table.entries:
                    want = _uncached_next_hops(table, dest, links)
                    assert routing.next_hops(table, dest, links) == want
        _, whole = run_scenario(config, seed)
        assert json.dumps(engine.trace) == json.dumps(whole)


# The records that end a queued frame at its sender; a withdraw farewell,
# traced as ``ctrl_sent``, skips the transmit queue.
_SENDER_ENDS = ("ctrl_sent", "data_tx", "ack_tx", "packet_lost")


@settings(max_examples=25, deadline=None)
@given(scenario_specs(), st.integers(0, 3))
def test_every_queued_frame_ends_in_one_transmit_or_loss(spec, seed):
    queued = Counter()
    enqueue = Engine._enqueue_frame

    def counting(engine, n, to, body):
        queued[n, to] += 1
        enqueue(engine, n, to, body)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_enqueue_frame", counting)
        for mode in ("geometric", "scatternet"):
            queued.clear()
            engine = Engine(validate_scenario(dict(spec, link_mode=mode)), seed)
            engine.run()
            ended = Counter(
                (r["node"], r["detail"]["to"])
                for r in engine.trace
                if r["kind"] in _SENDER_ENDS and "to" in r["detail"]
                and r["detail"].get("ctrl") != "withdraw"
            )
            # A frame still queued at the horizon has not ended yet.
            for n, radio in engine.radios.items():
                ended.update((n, to) for to, _ in radio.txq)
            assert ended == queued


def _without_seq(trace):
    return [{k: v for k, v in record.items() if k != "seq"} for record in trace]


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), st.integers(0, 3), st.integers(-10_000, 10_000),
       st.integers(-10_000, 10_000))
def test_shifting_every_position_keeps_the_trace(spec, seed, dx, dy):
    # Exact because the fuzz scenarios have no waypoints to interpolate.
    shifted = dict(spec, nodes=[dict(node, x=node["x"] + dx, y=node["y"] + dy)
                                for node in spec["nodes"]])
    _, trace = run_scenario(validate_scenario(spec), seed)
    _, moved = run_scenario(validate_scenario(shifted), seed)
    assert json.dumps(moved) == json.dumps(trace)


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), st.integers(0, 3))
def test_a_far_silent_node_adds_only_its_own_records(spec, seed):
    far = len(spec["nodes"])  # above every id
    grown = dict(spec, nodes=[*spec["nodes"], {"id": far, "x": 10_000, "y": 10_000, "class": 3}])
    _, trace = run_scenario(validate_scenario(spec), seed)
    _, bigger = run_scenario(validate_scenario(grown), seed)
    rest = []
    for record in _without_seq(bigger):
        if record["kind"] == "adv_timer" and record["node"] == far:
            continue
        if record["kind"] == "scatternet":
            *piconets, own = record["detail"]["piconets"]
            assert own == {"id": len(piconets), "master": far, "active_slaves": [],
                           "parked_slaves": []}
            record["detail"] = dict(record["detail"], piconets=piconets)
        rest.append(record)
    assert json.dumps(rest) == json.dumps(_without_seq(trace))


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), st.integers(0, 3))
def test_doubling_the_horizon_extends_the_trace(spec, seed):
    config = validate_scenario(spec)
    _, trace = run_scenario(config, seed)
    _, longer = run_scenario(validate_scenario(dict(spec, horizon=2 * spec["horizon"])), seed)
    assert json.dumps(longer[:len(trace)]) == json.dumps(trace)
    assert all(2 * record["t_us"] > config.horizon_hus for record in longer[len(trace):])


# The detail fields the engine seed chooses: payload bytes, seals and hop channels.
SEEDED = {"plaintext", "payload", "channel"}


def _unseeded(trace):
    return [dict(r, detail={k: v for k, v in r["detail"].items() if k not in SEEDED})
            for r in trace]


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), st.integers(1, 2**64 - 1))
def test_the_engine_seed_chooses_only_payloads_seals_and_channels(spec, seed):
    for mode in ("geometric", "scatternet"):
        config = validate_scenario(dict(spec, link_mode=mode))
        m, trace = run_scenario(config, 0)
        other_m, other = run_scenario(config, seed)
        assert _unseeded(other) == _unseeded(trace)
        assert summarize(other_m) == summarize(m)


# The trace fields that hold a node id, and those that hold a list of them
# (README's trace table); a piconet's ``id`` numbers the piconet, not a node.
ID_FIELDS = {"to", "from", "dst", "src", "target", "neighbor", "master"}
ID_LISTS = {"neighbors", "hop_trace", "bridges", "active_slaves", "parked_slaves"}
# Seals and hop sequences derive from ids; plaintext derives from msg_id only.
ID_SEEDED = {"payload", "channel"}


def _relabelled_spec(spec, ids):
    return dict(
        spec,
        nodes=[dict(node, id=ids[node["id"]]) for node in spec["nodes"]],
        traffic=[dict(t, src=ids[t["src"]], dst=ids[t["dst"]]) for t in spec["traffic"]],
        actions=[dict(a, node=ids[a["node"]]) for a in spec["actions"]],
    )


def _relabelled_trace(trace, ids):
    """``trace`` with every node id mapped through ``ids`` and the fields
    derived from ids dropped."""
    def value(key, v):
        if key in ID_FIELDS:
            return ids[v]
        if key in ID_LISTS:
            return [ids[m] for m in v]
        if key == "piconets":
            return [detail(p) for p in v]
        return v

    def detail(d):
        return {k: value(k, v) for k, v in d.items() if k not in ID_SEEDED}

    return [dict(r, node=None if r["node"] is None else ids[r["node"]], detail=detail(r["detail"]))
            for r in trace]


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), st.integers(0, 3), st.data())
def test_relabelling_ids_in_order_relabels_the_trace(spec, seed, data):
    n = len(spec["nodes"])
    new_ids = data.draw(st.lists(st.integers(0, NODE_ID_MAX), min_size=n, max_size=n,
                                 unique=True).map(sorted))
    ids = dict(zip(range(n), new_ids))
    for mode in ("geometric", "scatternet"):
        m, trace = run_scenario(validate_scenario(dict(spec, link_mode=mode)), seed)
        relabelled = _relabelled_spec(dict(spec, link_mode=mode), ids)
        other_m, other = run_scenario(validate_scenario(relabelled), seed)
        assert _relabelled_trace(other, {i: i for i in new_ids}) == _relabelled_trace(trace, ids)
        assert summarize(other_m) == summarize(m)
