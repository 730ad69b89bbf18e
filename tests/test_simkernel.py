import ast
import gc
import inspect
import json
import math
import sys
import textwrap
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bluehop import scenario_path
from bluehop.routing import process_advertisement
from bluehop.scatternet import link_allowed
from bluehop.scenario import CLASS_DEFAULT_RANGE, parse_scenario, validate_scenario
from bluehop.simkernel import (
    MOTION_CADENCE_HUS,
    NEIGHBOR_MISS_BUDGET,
    CausalityError,
    Engine,
    EventKind,
    EventQueue,
    run_scenario,
)
from bluehop.topology import Node, NodeState, Position

from conftest import advert, geometric_scenario
from test_fuzz import scenario_specs
from test_reference_run import GALLERY, all_reference


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue(horizon=100)
        q.schedule(0, 30, EventKind.MOTION_UPDATE, "b")
        q.schedule(0, 10, EventKind.MOTION_UPDATE, "a")
        assert q.pop().args == ("a",)
        assert q.pop().args == ("b",)

    def test_equal_times_pop_in_scheduling_order(self):
        q = EventQueue(horizon=100)
        for tag in ("first", "second", "third"):
            q.schedule(0, 5, EventKind.MOTION_UPDATE, tag)
        assert [q.pop().args[0] for _ in range(3)] == ["first", "second", "third"]

    def test_event_at_current_time_is_allowed(self):
        q = EventQueue(horizon=100)
        q.schedule(7, 7, EventKind.MOTION_UPDATE)
        assert q.pop().time == 7

    def test_past_event_raises_causality_error(self):
        q = EventQueue(horizon=100)
        with pytest.raises(CausalityError):
            q.schedule(10, 9, EventKind.MOTION_UPDATE)

    def test_past_event_under_a_reserved_number_raises_causality_error(self):
        q = EventQueue(horizon=100)
        with pytest.raises(CausalityError):
            q.schedule(10, 9, EventKind.MOTION_UPDATE, sequence=q.reserve())

    def test_event_at_the_horizon_is_queued(self):
        q = EventQueue(horizon=100)
        q.schedule(0, 100, EventKind.MOTION_UPDATE)
        assert q.pop().time == 100

    def test_event_after_the_horizon_is_not_queued(self):
        q = EventQueue(horizon=100)
        q.schedule(0, 101, EventKind.MOTION_UPDATE)
        q.schedule(0, 101, EventKind.MOTION_UPDATE, sequence=q.reserve())
        assert len(q) == 0

    def test_past_event_after_the_horizon_raises_causality_error(self):
        q = EventQueue(horizon=100)
        with pytest.raises(CausalityError):
            q.schedule(200, 150, EventKind.MOTION_UPDATE)

    def test_reserved_number_runs_before_events_scheduled_after_it_was_taken(self):
        q = EventQueue(horizon=100)
        seq = q.reserve()
        q.schedule(0, 5, EventKind.MOTION_UPDATE, "scheduled")
        q.schedule(0, 5, EventKind.MOTION_UPDATE, "reserved", sequence=seq)
        assert [q.pop().args[0] for _ in range(2)] == ["reserved", "scheduled"]


class TestKernelBasics:
    def test_empty_scenario(self):
        config = validate_scenario({"horizon": 1.0, "nodes": []})
        m, trace = run_scenario(config, 0)
        assert trace == []
        assert m.messages_sent == 0

    def test_single_node_sees_only_its_advertisement_timers(self):
        config = validate_scenario(
            {"horizon": 10.0, "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "class": 3}]}
        )
        _, trace = run_scenario(config, 0)
        assert [r["kind"] for r in trace] == ["adv_timer"] * 10

    def test_event_beyond_horizon_never_executes(self):
        config = validate_scenario(
            {"horizon": 1.0, "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "class": 3}]}
        )
        engine = Engine(config, 0)
        engine.run(until=0)
        queued = len(engine.queue)
        engine.queue.schedule(0, engine.horizon + 1, EventKind.MOTION_UPDATE)
        assert len(engine.queue) == queued
        engine.run()
        assert all(r["kind"] != "motion" for r in engine.trace)

    def test_traffic_past_the_horizon_is_never_queued(self):
        config = validate_scenario(
            {
                "horizon": 1.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "traffic": [
                    {"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 20,
                     "count": 100_000, "interval": 10}
                ],
            }
        )
        engine = Engine(config, 0)
        engine.run(until=0)
        assert len(engine.queue) < 10
        m, _ = engine.run()
        assert m.messages_sent == 1

    def test_identical_runs_are_byte_identical(self):
        config = parse_scenario(scenario_path("diamond_failover.json"))
        _, t1 = run_scenario(config, 3)
        _, t2 = run_scenario(config, 3)
        assert json.dumps(t1) == json.dumps(t2)

    def test_trace_times_never_decrease(self):
        config = parse_scenario(scenario_path("line5.json"))
        _, trace = run_scenario(config, 1)
        times = [r["t_us"] for r in trace]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_an_append_only_sink_gets_the_default_trace(self):
        config = parse_scenario(scenario_path("diamond_failover.json"))
        records = []
        Engine(config, 0, SimpleNamespace(append=records.append)).run()
        _, trace = run_scenario(config, 0)
        assert records == trace
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_the_engine_keeps_its_state_in_slots(self):
        engine = Engine(parse_scenario(scenario_path("churn25.json")), 0)
        assert not hasattr(engine, "__dict__")
        assert all(hasattr(engine, name) for name in Engine.__slots__)

    def test_every_slot_is_read_outside_the_constructor(self):
        methods = [
            node for node in ast.parse(textwrap.dedent(inspect.getsource(Engine))).body[0].body
            if isinstance(node, ast.FunctionDef) and node.name != "__init__"
        ]
        read = {
            node.attr for method in methods for node in ast.walk(method)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        assert set(Engine.__slots__) <= read
        assert len(set(Engine.__slots__)) == len(Engine.__slots__)


def _unreachable_after_a_run(config, seed):
    """What ``gc.collect()`` finds unreachable once an engine has been built, run
    and dropped, with the collector off throughout, so that no cycle is freed
    before the count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        engine = Engine(config, seed)
        engine.run()
        del engine
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class _CollectorProbe:
    """A trace sink that notes, at each record, whether the collector is on."""

    def __init__(self, fail_at: str | None = None):
        self.states = []
        self.fail_at = fail_at

    def append(self, record):
        self.states.append(gc.isenabled())
        if record["kind"] == self.fail_at:
            raise RuntimeError(f"sink failed at {record['kind']}")


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector's setting for the test, restored afterwards."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


class TestCollectorHoldOff:
    """``Engine.run`` holds the cyclic collector off, which is safe only while
    no run makes a reference cycle."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", GALLERY)
    def test_a_gallery_run_leaves_no_cycle(self, name, seed):
        config = parse_scenario(scenario_path(f"{name}.json"))
        assert _unreachable_after_a_run(config, seed) == 0

    @settings(max_examples=25, deadline=None)
    @given(scenario_specs(), st.integers(0, 3))
    def test_a_fuzzed_run_leaves_no_cycle(self, spec, seed):
        for mode in ("geometric", "scatternet"):
            config = validate_scenario(dict(spec, link_mode=mode))
            assert _unreachable_after_a_run(config, seed) == 0

    def test_the_collector_is_off_at_every_record_of_a_run(self, collector):
        probe = _CollectorProbe()
        engine = Engine(parse_scenario(scenario_path("churn25.json")), 0, probe)
        probe.states.clear()  # set-up's records are not the run's
        engine.run()
        assert probe.states and not any(probe.states)
        assert gc.isenabled() is collector

    def test_a_resumed_run_restores_the_setting_at_each_stop(self, collector):
        probe = _CollectorProbe()
        engine = Engine(parse_scenario(scenario_path("churn25.json")), 0, probe)
        probe.states.clear()
        for until in (0, engine.horizon // 3, engine.horizon // 2):
            engine.run(until=until)
            assert gc.isenabled() is collector
        engine.run()
        assert gc.isenabled() is collector
        assert probe.states and not any(probe.states)

    def test_a_run_whose_handler_raises_restores_the_setting(self, collector):
        probe = _CollectorProbe(fail_at="delivery")
        engine = Engine(parse_scenario(scenario_path("line5.json")), 0, probe)
        with pytest.raises(RuntimeError, match="sink failed at delivery"):
            engine.run()
        assert probe.states[-1] is False
        assert gc.isenabled() is collector


def _kinds_at(trace, t_us, kinds):
    return [(r["kind"], r["node"]) for r in trace if r["t_us"] == t_us and r["kind"] in kinds]


class TestPeriodicTimers:
    def test_queue_after_setup_does_not_grow_with_horizon_over_period(self):
        nodes = [{"id": i, "x": 5.0 * i, "y": 0.0, "class": 3} for i in range(10)]
        nodes[9]["waypoints"] = [[600.0, 50.0, 0.0]]
        config = validate_scenario(
            {"horizon": 600.0, "protocol": {"t_adv": 0.01}, "nodes": nodes}
        )
        engine = Engine(config, 0)
        engine.run(until=0)
        # One motion tick, one advertisement round, and per node at most one
        # frame on air and one expiry check per neighbour.
        assert len(engine.queue) < 50

    def test_queue_after_setup_does_not_grow_with_a_flows_count(self):
        config = validate_scenario(
            {
                "horizon": 1.0,
                "nodes": [{"id": i, "x": 5.0 * i, "y": 0.0, "class": 3} for i in range(2)],
                "traffic": [{"time": 0.5, "src": 0, "dst": 1, "payload_bytes": 20,
                             "count": 100_000, "interval": 0}],
            }
        )
        engine = Engine(config, 0)
        engine.run(until=0)
        # The advertisement round, one frame on air per node, one expiry check
        # per neighbour and one event for the whole flow.
        assert len(engine.queue) < 10

    def test_one_instant_runs_motion_then_round_then_scenario_events(self):
        config = validate_scenario(
            {
                "horizon": 2.0,
                "protocol": {"t_adv": 1.0},
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3, "state": "off"},
                    {"id": 2, "x": 5.0, "y": 5.0, "class": 3},
                    {"id": 3, "x": 0.0, "y": 5.0, "class": 3,
                     "waypoints": [[2.0, 0.0, 8.0]]},
                ],
                "actions": [{"time": 1.0, "node": 2, "action": "set_state", "state": "off"}],
                "traffic": [{"time": 1.0, "src": 0, "dst": 3, "payload_bytes": 20}],
            }
        )
        _, trace = run_scenario(config, 0)
        kinds = {"motion", "adv_timer", "state_change", "msg_send"}
        assert _kinds_at(trace, 1_000_000, kinds) == [
            ("motion", None),
            ("adv_timer", 0),
            ("adv_timer", 2),
            ("adv_timer", 3),
            ("state_change", 2),
            ("msg_send", 0),
        ]

    def test_checks_armed_at_setup_run_before_the_periodic_timers(self):
        # Node 1 powers off before its first advertisement lands, so the
        # expiry checks its neighbours armed at set-up fire at 3 * t_adv, the
        # same instant as a motion tick and an advertisement round. Set-up
        # armed them first, so they run first.
        config = validate_scenario(
            {
                "horizon": 4.0,
                "protocol": {"t_adv": 1.0},
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                    {"id": 2, "x": 0.0, "y": 5.0, "class": 3,
                     "waypoints": [[4.0, 0.0, 6.0]]},
                ],
                "actions": [{"time": 0.0, "node": 1, "action": "set_state", "state": "off"}],
            }
        )
        _, trace = run_scenario(config, 0)
        kinds = {"neighbor_expiry", "motion", "adv_timer"}
        assert _kinds_at(trace, 3_000_000, kinds) == [
            ("neighbor_expiry", 0),
            ("neighbor_expiry", 2),
            ("motion", None),
            ("adv_timer", 0),
            ("adv_timer", 2),
        ]


def _expiries(trace):
    return [(r["t_us"], r["node"], r["detail"]["neighbor"]) for r in trace
            if r["kind"] == "neighbor_expiry"]


class TestExpiryChecks:
    """One queued expiry check per (node, neighbour) pair, whatever the refresh rate."""

    def test_queue_holds_one_check_per_directed_link(self):
        # A 6-node clique refreshed every 10 ms: 30 directed links, where one
        # check per refresh kept three periods' worth (90) queued.
        nodes = [{"id": i, "x": float(i), "y": 0.0, "class": 3} for i in range(6)]
        config = validate_scenario({"horizon": 10.0, "protocol": {"t_adv": 0.01}, "nodes": nodes})
        engine = Engine(config, 0)
        engine.run(until=4_000_000)
        checks = [e for e in engine.queue.heap if e.kind is EventKind.NEIGHBOR_EXPIRY]
        assert 0 < len(checks) <= 30

    def test_no_check_is_queued_when_the_horizon_is_shorter_than_the_budget(self):
        # With the default t_adv of 1 s every check comes due at 3 s, after a
        # 2 s horizon, so none is queued; each pair keeps its record.
        nodes = [{"id": i, "x": 8.0 * i, "y": 0.0, "class": 3} for i in range(3)]
        config = validate_scenario({"horizon": 2.0, "nodes": nodes})
        engine = Engine(config, 0)
        engine.run(until=0)
        assert all(e.kind is not EventKind.NEIGHBOR_EXPIRY for e in engine.queue.heap)
        assert {n: set(pairs) for n, pairs in engine.liveness.items()} == {
            0: {1}, 1: {0, 2}, 2: {1}
        }

    def test_reboot_with_checks_pending_expires_a_silent_neighbor_once(self):
        # Node 0 power-cycles while its check on node 1 is queued; node 1 then
        # goes silent for good. The check that acts was re-armed after the
        # last refresh, which found it live.
        config = validate_scenario(
            {
                "horizon": 0.2,
                "protocol": {"t_adv": 0.01},
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "actions": [
                    {"time": 0.0303, "node": 0, "action": "set_state", "state": "off"},
                    {"time": 0.0307, "node": 0, "action": "set_state", "state": "active"},
                    {"time": 0.0502, "node": 1, "action": "set_state", "state": "off"},
                ],
            }
        )
        engine = Engine(config, 0)
        engine.run(until=60_500)  # just before the power-off
        assert any(
            e.kind is EventKind.NEIGHBOR_EXPIRY and e.args == (0, 1) for e in engine.queue.heap
        )
        _, trace = engine.run()
        last_heard = max(
            r["t_us"] for r in trace
            if r["kind"] == "ctrl_rx" and r["node"] == 0 and r["detail"]["from"] == 1
        )
        budget_us = NEIGHBOR_MISS_BUDGET * engine.t_adv // 2
        assert _expiries(trace) == [(last_heard + budget_us, 0, 1)]
        with all_reference():
            _, reference = Engine(config, 0).run()
        assert reference == trace

    def test_reboot_at_the_instant_of_a_refresh_keeps_the_expiry_order(self):
        # At t = 625 us node 0 hears node 1's first advertisement, then
        # power-cycles and hears it afresh; node 2 hears node 3 in between.
        # Nodes 1 and 3 then fall silent. With one check per refresh, node 0's
        # first check at that instant acts, so node 0 expires first; the live
        # check keeps that place across the reboot.
        config = validate_scenario(
            {
                "horizon": 0.1,
                "protocol": {"t_adv": 0.01},
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                    {"id": 2, "x": 100.0, "y": 0.0, "class": 3},
                    {"id": 3, "x": 105.0, "y": 0.0, "class": 3},
                ],
                "actions": [
                    {"time": 0.000625, "node": 0, "action": "set_state", "state": "off"},
                    {"time": 0.000625, "node": 0, "action": "set_state", "state": "active"},
                    {"time": 0.000625, "node": 1, "action": "set_state", "state": "off"},
                    {"time": 0.000625, "node": 3, "action": "set_state", "state": "off"},
                ],
            }
        )
        _, trace = run_scenario(config, 0)
        assert _expiries(trace) == [(30_625, 0, 1), (30_625, 2, 3)]
        with all_reference():
            _, reference = run_scenario(config, 0)
        assert reference == trace

    @pytest.mark.parametrize("away", [
        {"time": 0.0403, "node": 0, "action": "set_state", "state": "off"},
        {"time": 0.0403, "node": 1, "action": "withdraw"},
    ], ids=["node-off", "neighbour-withdrawn"])
    def test_a_dropped_check_leaves_the_next_refresh_to_arm_one(self, away):
        # Node 0's check on node 1 comes due at 60.625 ms while node 0 is off,
        # or after node 1 withdrew and node 0 forgot it, so it is dropped with
        # its record. Both are back at 100.3 ms; node 1 then falls silent and
        # expires once, a budget after it was last heard.
        back = dict(away, time=0.1003, action="set_state", state="active")
        config = validate_scenario(
            {
                "horizon": 0.2,
                "protocol": {"t_adv": 0.01},
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "actions": [
                    away, back, {"time": 0.1502, "node": 1, "action": "set_state", "state": "off"},
                ],
            }
        )
        engine = Engine(config, 0)
        engine.run(until=180_000)  # 90 ms: dropped, and nothing heard since
        assert 1 not in engine.liveness[0]
        checks = [e.args for e in engine.queue.heap if e.kind is EventKind.NEIGHBOR_EXPIRY]
        assert (0, 1) not in checks
        _, trace = engine.run()
        last_heard = max(
            r["t_us"] for r in trace
            if r["kind"] == "ctrl_rx" and r["node"] == 0 and r["detail"]["from"] == 1
        )
        budget_us = NEIGHBOR_MISS_BUDGET * engine.t_adv // 2
        assert last_heard > 100_300
        assert [e for e in _expiries(trace) if e[1] == 0] == [(last_heard + budget_us, 0, 1)]
        with all_reference():
            _, reference = Engine(config, 0).run()
        assert reference == trace

    def test_a_check_due_at_the_instant_of_a_refresh_keeps_the_expiry_order(self):
        # Node 0 powers on at 70.625 ms, so its checks on nodes 1 and 2 come due
        # at 100.625 ms. At that instant it power-cycles twice, hearing node 1
        # and then node 2 on the first power-on, while node 1 is off for the
        # second: the check on node 1 finds it forgotten, and node 1's
        # advertisement then arrives. Nodes 1 and 2 fall silent at once, and the
        # first refresh at 100.625 ms, node 1's, expires first.
        def state(t, node, to):
            return {"time": t, "node": node, "action": "set_state", "state": to}

        t = 0.100625
        config = validate_scenario(
            {
                "horizon": 0.2,
                "protocol": {"t_adv": 0.01},
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3, "state": "off"},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                    {"id": 2, "x": 0.0, "y": 5.0, "class": 3},
                ],
                "actions": [
                    state(t - 0.03, 0, "active"),
                    state(t, 0, "off"), state(t, 0, "active"), state(t, 1, "off"),
                    state(t, 0, "off"), state(t, 0, "active"), state(t, 1, "active"),
                    state(t + 5e-7, 1, "off"), state(t + 5e-7, 2, "off"),
                ],
            }
        )
        _, trace = run_scenario(config, 0)
        assert _expiries(trace) == [(130_625, 0, 1), (130_625, 0, 2)]
        with all_reference():
            _, reference = run_scenario(config, 0)
        assert reference == trace

    @settings(max_examples=20, deadline=None)
    @given(scenario_specs(), st.sampled_from([0.05, 0.2, 1.0]))
    def test_each_pair_has_a_record_while_its_one_check_is_queued(self, spec, t_adv):
        # A record without a queued check is one whose check would come due
        # after the horizon; a t_adv of 1 s puts every check there.
        config = validate_scenario(dict(spec, protocol={"t_adv": t_adv}))
        engine = Engine(config, 0)
        budget = NEIGHBOR_MISS_BUDGET * engine.t_adv
        step = config.horizon_hus // 10 + 1
        for until in range(0, config.horizon_hus + step, step):
            engine.run(until=until)
            checks = Counter(e.args for e in engine.queue.heap if e.kind is EventKind.NEIGHBOR_EXPIRY)
            heard = {(n, m): h for n, pairs in engine.liveness.items() for m, (h, _) in pairs.items()}
            assert set(checks.values()) <= {1}
            assert checks.keys() <= heard.keys()
            for pair in heard.keys() - checks.keys():
                assert heard[pair] + budget > config.horizon_hus
            for n, rt in engine.runtimes.items():
                if engine.world[n].state is NodeState.ACTIVE:
                    assert {(n, m) for m in rt.known} <= heard.keys()


class TestDeliveryPaths:
    def test_relay_scenario_hop_trace(self):
        config = parse_scenario(scenario_path("figure4.json"))
        engine = Engine(config, 7)
        m, trace = engine.run()
        assert m.delivered == 1
        last_rx = [r for r in trace if r["kind"] == "data_rx"][-1]
        assert last_rx["detail"]["hop_trace"] == [1, 3, 2]

    def test_direct_neighbor_is_one_hop(self):
        config = validate_scenario(
            {
                "horizon": 1.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "traffic": [{"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 20}],
            }
        )
        _, trace = run_scenario(config, 0)
        delivery = [r for r in trace if r["kind"] == "delivery"][0]
        assert delivery["detail"]["hops"] == 1

    def test_rate_multiplier_carries_payload_in_fewer_fragments(self):
        base = {
            "horizon": 1.0,
            "nodes": [
                {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
            ],
            "traffic": [{"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 875}],
        }
        _, slow = run_scenario(validate_scenario(base), 0)
        _, fast = run_scenario(validate_scenario({**base, "rate_multiplier": 3}), 0)
        frag = lambda tr: [r for r in tr if r["kind"] == "msg_send"][0]["detail"]["fragments"]
        assert frag(slow) == 3 and frag(fast) == 1

    def test_multifragment_message_reassembles(self):
        config = validate_scenario(
            {
                "horizon": 1.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 8.0, "y": 0.0, "class": 3},
                    {"id": 2, "x": 16.0, "y": 0.0, "class": 3},
                ],
                "traffic": [{"time": 0.1, "src": 0, "dst": 2, "payload_bytes": 875}],
            }
        )
        _, trace = run_scenario(config, 0)
        send = [r for r in trace if r["kind"] == "msg_send"][0]
        delivery = [r for r in trace if r["kind"] == "delivery"][0]
        assert send["detail"]["fragments"] == 3
        assert delivery["detail"]["plaintext"] == send["detail"]["plaintext"]
        # Each fragment's payload is encoded once, and every hop traces that one string.
        payloads = {}
        for r in trace:
            if r["kind"] == "data_rx":
                payloads.setdefault(r["detail"]["fragment"], []).append(r["detail"]["payload"])
        assert sorted(payloads) == [0, 1, 2]
        for hops in payloads.values():
            assert len(hops) == 2 and hops[0] is hops[1]

    def test_relay_never_sees_plaintext(self):
        config = parse_scenario(scenario_path("figure4.json"))
        _, trace = run_scenario(config, 7)
        plaintext = [r for r in trace if r["kind"] == "msg_send"][0]["detail"]["plaintext"]
        relay_payloads = [
            r["detail"]["payload"]
            for r in trace
            if r["kind"] == "data_rx" and r["node"] == 3
        ]
        assert relay_payloads
        assert all(plaintext not in p for p in relay_payloads)

    def test_first_hop_prefers_the_shorter_queue(self):
        # A diamond 0 -> {1, 2} -> 3, its routes converged by t = 1 s. Two
        # messages leave 0 at one instant: the first, of 3 fragments, takes 1
        # (the lower id of two empty queues), so the second takes 2.
        nodes = {0: (0.0, 0.0), 1: (6.0, 6.0), 2: (6.0, -6.0), 3: (12.0, 0.0)}
        send = {"time": 1.05, "src": 0, "dst": 3}
        config = geometric_scenario(
            nodes, horizon=1.5,
            traffic=[{**send, "payload_bytes": 875}, {**send, "payload_bytes": 20}],
        )
        _, trace = run_scenario(config, 0)
        fragments = [r for r in trace if r["kind"] == "msg_send"]
        assert [r["detail"]["fragments"] for r in fragments] == [3, 1]
        first_tx = {}
        for r in trace:
            if r["kind"] == "data_tx" and r["node"] == 0:
                first_tx.setdefault(r["detail"]["msg_id"], r["detail"]["to"])
        assert first_tx == {0: 1, 1: 2}

    def test_relay_prefers_the_shorter_queue(self):
        # A line 0 - 1 into a diamond 1 -> {2, 3} -> 4, its routes converged
        # by t = 1 s. At one instant relay 1 queues a 3-fragment message to 2
        # and 0 sends a 1-fragment message to 4, whose only next hop is 1. The
        # fragment reaches 1 while two frames wait for 2, so it goes via 3.
        nodes = {0: (0.0, 0.0), 1: (8.0, 0.0), 2: (14.0, 6.0), 3: (14.0, -6.0), 4: (20.0, 0.0)}
        config = geometric_scenario(
            nodes, horizon=1.5,
            traffic=[{"time": 1.05, "src": 1, "dst": 2, "payload_bytes": 875},
                     {"time": 1.05, "src": 0, "dst": 4, "payload_bytes": 20}],
        )
        _, trace = run_scenario(config, 0)
        relayed = [r["detail"]["to"] for r in trace
                   if r["kind"] == "data_tx" and r["node"] == 1 and r["detail"]["msg_id"] == 1]
        assert relayed == [3]

    def test_rejected_when_source_not_active(self):
        config = validate_scenario(
            {
                "horizon": 1.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3, "state": "off"},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "traffic": [{"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 20}],
            }
        )
        m, _ = run_scenario(config, 0)
        assert m.failed.get("rejected") == 1
        assert m.messages_sent == 1


class TestFailureModes:
    def test_unreachable_pair_exhausts_retries(self):
        config = parse_scenario(scenario_path("figure4_norelay.json"))
        m, trace = run_scenario(config, 0)
        assert m.delivered == 0
        # The endpoints are out of range, so no attempt found a first hop.
        assert m.failed == {"no-route": 1}
        timeouts = [r for r in trace if r["kind"] == "ack_timeout"]
        assert len(timeouts) == 4  # initial deadline plus three retries

    def test_forward_failure_at_relay_with_poisoned_route(self):
        config = geometric_scenario(
            {0: (0.0, 0.0), 1: (8.0, 0.0), 2: (16.0, 0.0)}, horizon=1.0
        )
        engine = Engine(config, 0)
        engine.run(until=100_000)
        # Node 2 drops itself from the vector the relay hears, which poisons
        # the relay's route; node 0 routes 2 via the relay, so it offers none,
        # and the arriving packet finds no usable next hop.
        relay = engine.runtimes[1]
        silent = advert(2, ())
        assert process_advertisement(relay.table, 2, silent) is True
        engine._send_message(0, 2, 30)
        engine.run(until=140_000)
        assert engine.metrics.packet_drops.get("forward-failure", 0) >= 1

    def test_ttl_drop_on_forwarding_loop(self):
        config = geometric_scenario({0: (0.0, 0.0), 1: (8.0, 0.0)}, horizon=1.0)
        engine = Engine(config, 0)
        engine.run(until=100_000)
        # Force a two-node forwarding loop toward a phantom destination: each
        # node hears the other offer it at cost 1.
        for n, via in ((0, 1), (1, 0)):
            phantom = advert(via, ((via, 0), (9, 1)))
            assert process_advertisement(engine.runtimes[n].table, via, phantom) is True
        engine.world[9] = Node(Position(1000.0, 1000.0), engine.world[0].range_m)
        engine._send_message(0, 9, 10)
        engine.run(until=400_000)
        assert engine.metrics.packet_drops.get("ttl-drop", 0) >= 1
        rx = [r for r in engine.trace if r["kind"] == "data_rx"]
        assert max(len(r["detail"]["hop_trace"]) for r in rx) <= engine.inf + 1


class TestChurnReactions:
    def test_stale_advertisement_counted(self):
        config = validate_scenario(
            {
                "horizon": 0.2,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3, "waypoints": [[0.1, 50.0, 0.0]]},
                    {"id": 2, "x": 100.0, "y": 0.0, "class": 3},
                ],
                # Node 1 asks node 0 for a route to the unreachable node 2.
                # Node 0's answering advertisement is in the air at the motion
                # tick at t=0.1 that takes node 1 out of range, so the arrival
                # sees a dead link.
                "traffic": [{"time": 0.099, "src": 1, "dst": 2, "payload_bytes": 10}],
            }
        )
        m, trace = run_scenario(config, 0)
        assert m.stale_control == 1
        stale = [r for r in trace if r["kind"] == "stale_ctrl"]
        assert [(r["node"], r["detail"]) for r in stale] == [
            (1, {"from": 0, "ctrl": "advertisement"})
        ]

    def test_silent_neighbor_expires_after_three_periods(self):
        config = validate_scenario(
            {
                "horizon": 6.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "actions": [
                    {"time": 1.5, "node": 1, "action": "set_state", "state": "off"}
                ],
            }
        )
        engine = Engine(config, 0)
        _, trace = engine.run()
        expiries = [r for r in trace if r["kind"] == "neighbor_expiry"]
        assert expiries and expiries[0]["node"] == 0
        # Three advertisement periods after the last one heard (t=1.0 s).
        assert 3.9 <= expiries[0]["t_us"] / 1e6 <= 4.1
        # Expiry is handled like a withdraw: the route is gone afterwards.
        assert engine.runtimes[0].table.cost_to(1) >= engine.inf

    def test_off_then_on_rejoins_and_rediscovers(self):
        config = validate_scenario(
            {
                "horizon": 8.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "actions": [
                    {"time": 1.0, "node": 1, "action": "set_state", "state": "off"},
                    {"time": 5.0, "node": 1, "action": "set_state", "state": "active"},
                ],
                "traffic": [{"time": 6.0, "src": 0, "dst": 1, "payload_bytes": 16}],
            }
        )
        m, _ = run_scenario(config, 0)
        assert m.delivered == 1

    def test_withdraw_action_notifies_neighbors_then_powers_off(self):
        config = validate_scenario(
            {
                "horizon": 2.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "actions": [{"time": 0.5, "node": 1, "action": "withdraw"}],
            }
        )
        engine = Engine(config, 0)
        _, trace = engine.run()
        withdraws = [
            r for r in trace if r["kind"] == "ctrl_sent" and r["detail"]["ctrl"] == "withdraw"
        ]
        assert [w["node"] for w in withdraws] == [1]
        assert engine.world[1].state is NodeState.OFF
        assert engine.runtimes[0].table.cost_to(1) >= engine.inf

    def test_duplicate_discovery_request_forwarded_once(self):
        # Diamond with a tail: 0-(1|2)-3-4. Node 3 hears the same request
        # twice and must fan it out only once.
        config = validate_scenario(
            {
                "horizon": 2.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": 6.0, "y": 6.0, "class": 3},
                    {"id": 2, "x": 6.0, "y": -6.0, "class": 3},
                    {"id": 3, "x": 12.0, "y": 0.0, "class": 3},
                    {"id": 4, "x": 20.0, "y": 0.0, "class": 3},
                ],
                "traffic": [{"time": 0.0, "src": 0, "dst": 4, "payload_bytes": 16}],
            }
        )
        m, trace = run_scenario(config, 0)
        assert m.delivered == 1
        first_flood = [
            r
            for r in trace
            if r["kind"] == "ctrl_sent"
            and r["detail"]["ctrl"] == "discovery_request"
            and r["node"] == 3
            and r["t_us"] < 100_000
        ]
        # Links of node 3 are {1, 2, 4}; one re-forward excludes the asker.
        assert len(first_flood) == 2


def _reboot_mid_transfer():
    """Node 0 power-cycles 0.2 ms into an 800 B (3-fragment) send 0 -> 2 on a line."""
    config = validate_scenario(
        {
            "horizon": 0.15,
            "nodes": [{"id": i, "x": 8.0 * i, "y": 0.0, "class": 3} for i in range(3)],
            "traffic": [{"time": 0.1, "src": 0, "dst": 2, "payload_bytes": 800}],
            "actions": [
                {"time": 0.1002, "node": 0, "action": "set_state", "state": "off"},
                {"time": 0.1004, "node": 0, "action": "set_state", "state": "active"},
            ],
        }
    )
    return run_scenario(config, 0)[1]


class TestRebootFaults:
    def test_every_queued_fragment_is_sent_or_lost(self):
        # Fragment 0 is on air at the power-off; fragments 1 and 2 are lost.
        trace = _reboot_mid_transfer()
        outcomes = [
            r
            for r in trace
            if r["node"] == 0
            and (
                r["kind"] == "data_tx"
                or (r["kind"] == "packet_lost" and r["detail"]["ftype"] == "data")
            )
        ]
        assert len(outcomes) == 3

    def test_frame_on_air_is_lost_when_its_sender_powers_off(self):
        trace = _reboot_mid_transfer()
        assert not [
            r
            for r in trace
            if r["kind"] == "data_rx" and r["node"] == 1 and r["detail"]["from"] == 0
        ]

    def test_power_off_loses_the_queue_at_once_and_the_frame_on_air_at_its_arrival(self):
        lost = [(r["t_us"], r["node"], r["detail"])
                for r in _reboot_mid_transfer() if r["kind"] == "packet_lost"]
        data = {"ftype": "data", "where": "sender_inactive", "msg_id": 0}
        assert lost == [
            (100_200, 0, {"to": 1, **data, "fragment": 1}),
            (100_200, 0, {"to": 1, **data, "fragment": 2}),
            (103_125, 1, {"from": 0, **data, "fragment": 0}),
        ]

    def test_a_farewell_due_with_the_cut_frame_still_arrives(self):
        # Node 1 withdraws right after the round puts its one-slot
        # advertisement on air, so the farewell, one slot later, arrives at
        # the instant the cut advertisement would have.
        config = validate_scenario(
            {
                "horizon": 1.1,
                "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                          {"id": 1, "x": 5.0, "y": 0.0, "class": 3}],
                "actions": [{"time": 1.0, "node": 1, "action": "withdraw"}],
            }
        )
        _, trace = run_scenario(config, 0)
        at_node_0 = [(r["kind"], r["detail"]) for r in trace
                     if r["node"] == 0 and r["t_us"] == 1_000_625]
        assert at_node_0 == [
            ("packet_lost", {"from": 1, "ftype": "adv", "where": "sender_inactive"}),
            ("ctrl_rx", {"from": 1, "ctrl": "withdraw"}),
        ]


def _line_of_six(mode="geometric", horizon=1.0, flows=1, count=1, interval=0.0):
    """Six class-3 nodes 8 m apart, with 300 B messages from node 0 to node 5."""
    return validate_scenario(
        {
            "link_mode": mode,
            "horizon": horizon,
            "protocol": {"t_adv": 0.2},
            "nodes": [{"id": i, "x": 8.0 * i, "y": 0.0, "class": 3} for i in range(6)],
            "traffic": [
                {"time": 0.1, "src": 0, "dst": 5, "payload_bytes": 300, "count": count,
                 "interval": interval}
            ] * flows,
        }
    )


def _mobile_lattice(side):
    """side x side class-3 nodes 8 m apart, each walking 3 m along both axes for 2 s."""
    return validate_scenario(
        {
            "horizon": 2.0,
            "protocol": {"t_adv": 2.0},
            "nodes": [
                {"id": side * i + j, "x": 8.0 * i, "y": 8.0 * j, "class": 3,
                 "waypoints": [[2.0, 8.0 * i + 3.0 * (-1) ** j, 8.0 * j + 3.0 * (-1) ** i]]}
                for i in range(side)
                for j in range(side)
            ],
        }
    )


def _lines_per_record(config):
    """Python source lines run by a whole run, per trace record.

    Lines are counted as ``sys.settrace`` "line" events, so the figure
    depends only on the code and the scenario, never on the host's speed,
    and work written inline counts as much as work behind a call.
    """
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    engine = Engine(config, 0)
    sys.settrace(count_lines)
    try:
        engine.run()
    finally:
        sys.settrace(None)
    return lines / len(engine.trace)


class TestWorkGrowsWithContent:
    """Time stays proportional to the scenario's content.

    Along each axis the work per trace record should stay flat, so four
    times the content may cost only a little more per record. Work is
    counted in Python lines run. A transmit queue scanned per forwarding
    decision made the flows and burst axes read 1.64-1.88 here. Relinking
    each mover against every node made the nodes axis read 1.49, and 1.53
    with the pair test written inline, where counting calls read only 1.08.
    Linear code reads 0.94-1.17.

    No tracer sees work done inside one C call, such as ``x in deque``,
    ``list.index`` or ``sorted``: a scan written that way runs no Python
    lines or calls, so this guard cannot catch it.
    """

    @pytest.mark.parametrize(
        "make",
        [
            # Messages 0.4 s apart while the horizon grows: a quiet topology.
            lambda k: _line_of_six(horizon=2.0 * k, count=5 * k, interval=0.4),
            lambda k: _line_of_six(flows=10 * k, count=5, interval=0.05),
            # One flow's messages at interval 0 queue behind each other.
            lambda k: _line_of_six(count=50 * k),
            lambda k: _line_of_six(mode="scatternet", count=50 * k),
            # Relinking tests each mover against the nodes around it, not all.
            lambda k: _mobile_lattice(6 * math.isqrt(k)),
        ],
        ids=["horizon", "flows", "burst", "scatternet-burst", "nodes"],
    )
    def test_lines_per_record_stay_flat(self, make):
        ratio = _lines_per_record(make(4)) / _lines_per_record(make(1))
        assert ratio < 1.25


class TestScatternetMode:
    def test_slot_parity_doubles_single_hop_latency(self):
        nodes = [
            {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
            {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
        ]
        lat = {}
        for mode in ("geometric", "scatternet"):
            config = validate_scenario(
                {
                    "link_mode": mode,
                    "horizon": 1.0,
                    "nodes": nodes,
                    "traffic": [{"time": 0.1, "src": 0, "dst": 1, "payload_bytes": 70}],
                }
            )
            m, _ = run_scenario(config, 0)
            assert m.delivered == 1
            lat[mode] = m.latencies_us[0]
        # t=0.1 s is an even-slot boundary, so the master sends immediately
        # in both modes; the slave's ack waits for an odd slot only in
        # scatternet mode, which shows up in control timing, not here.
        assert lat["geometric"] == lat["scatternet"] == 625

    def test_channel_annotations_in_range(self):
        config = parse_scenario(scenario_path("churn25.json"))
        engine = Engine(config, 1)
        engine.run(until=4_000_000)
        channels = [
            r["detail"]["channel"]
            for r in engine.trace
            if r["kind"] in ("data_tx", "ctrl_sent", "ack_tx") and "channel" in r["detail"]
        ]
        assert channels
        assert all(0 <= c < 79 for c in channels)

    def test_delivery_across_piconets_through_bridge(self):
        # Two stars joined by a middle node; traffic must relay through the
        # bridge's two active-slave roles.
        config = validate_scenario(
            {
                "link_mode": "scatternet",
                "horizon": 2.0,
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 1, "x": -8.0, "y": 0.0, "class": 3},
                    {"id": 2, "x": 0.0, "y": 8.0, "class": 3},
                    {"id": 3, "x": 8.0, "y": 0.0, "class": 3},
                    {"id": 6, "x": 16.0, "y": 0.0, "class": 3},
                    {"id": 4, "x": 24.0, "y": 0.0, "class": 3},
                    {"id": 5, "x": 16.0, "y": 8.0, "class": 3},
                ],
                "traffic": [{"time": 0.5, "src": 1, "dst": 4, "payload_bytes": 32}],
            }
        )
        engine = Engine(config, 0)
        m, trace = engine.run()
        assert m.delivered == 1
        assert 3 in engine.net.bridge_nodes
        last_rx = [r for r in trace if r["kind"] == "data_rx"][-1]
        assert last_rx["detail"]["hop_trace"] == [1, 0, 3, 6, 4]

    def test_scatternet_formed_and_reformed_under_churn(self):
        config = parse_scenario(scenario_path("churn25.json"))
        engine = Engine(config, 1)
        _, trace = engine.run()
        forms = [r for r in trace if r["kind"] == "scatternet"]
        assert len(forms) >= 2  # initial formation plus churn-driven reforms
        for form in forms:
            for pico in form["detail"]["piconets"]:
                assert len(pico["active_slaves"]) <= 7


@st.composite
def churning_scenarios(draw):
    # The kernel's grid cells are as wide as the largest range, so positions
    # lie on a grid of a fifth of it, centred on 0: many pairs sit exactly one
    # range apart, and nodes fall in cells on both sides of zero.
    classes = draw(st.sampled_from([(3,), (3, 2), (3, 2, 1)]))
    step = CLASS_DEFAULT_RANGE[classes[-1]] / 5
    grid = st.integers(-10, 10).map(lambda k: step * k)
    n = draw(st.integers(1, 12))
    nodes = []
    for i in range(n):
        cls = draw(st.sampled_from(classes))
        node = {"id": i, "x": draw(grid), "y": draw(grid), "class": cls}
        if cls == 3 and draw(st.booleans()):
            node["range"] = draw(st.sampled_from([6.0, 8.0]))
        if draw(st.booleans()):
            t, waypoints = 0.0, []
            for _ in range(draw(st.integers(1, 3))):
                t += draw(st.sampled_from([0.1, 0.25, 0.3]))
                waypoints.append([round(t, 2), draw(grid), draw(grid)])
            node["waypoints"] = waypoints
        nodes.append(node)
    actions = []
    for _ in range(draw(st.integers(0, 5))):
        action = {"time": draw(st.integers(0, 20)) / 20, "node": draw(st.integers(0, n - 1))}
        if draw(st.booleans()):
            action["action"] = "withdraw"
        else:
            action["action"] = "set_state"
            action["state"] = draw(st.sampled_from(["off", "parked", "active"]))
        actions.append(action)
    return {
        "link_mode": draw(st.sampled_from(["geometric", "scatternet"])),
        "horizon": 1.0,
        "nodes": nodes,
        "actions": actions,
    }


@settings(max_examples=120, deadline=None)
@given(churning_scenarios())
def test_links_match_the_link_rule_after_every_change(data):
    # The kernel keeps the in-range graph incrementally; after every motion
    # tick and action it must agree with the rule evaluated from scratch.
    _assert_links_follow_the_rule(Engine(validate_scenario(data), 0))


def _assert_links_follow_the_rule(engine):
    ticks = range(0, engine.horizon + 1, MOTION_CADENCE_HUS)
    for t in sorted({*ticks, *(a.time_hus for a in engine.config.actions)}):
        engine.run(until=t)
        ids = sorted(engine.world)
        for n in ids:
            want = tuple(
                m for m in ids if link_allowed(n, m, engine.world, engine.net, engine.mode)
            )
            assert engine.links[n] == want, (t, n)


def test_links_follow_the_rule_where_motion_overflows():
    # Interpolating a leg from -1e308 to 1e308 m overflows, so node 0 leaves
    # node 1 for a position that is in range of nothing, until the leg ends.
    config = validate_scenario(
        {
            "horizon": 1.0,
            "nodes": [
                {"id": 0, "x": -1e308, "y": 0.0, "class": 3, "waypoints": [[1.0, 1e308, 0.0]]},
                {"id": 1, "x": -1e308, "y": 0.0, "class": 3},
                {"id": 2, "x": 1e308, "y": 0.0, "class": 3},
            ],
        }
    )
    _assert_links_follow_the_rule(Engine(config, 0))


@pytest.mark.parametrize("mode", ["geometric", "scatternet"])
@pytest.mark.parametrize(
    "x0,x1",
    [
        # math.dist puts these class-3 radios exactly 10.0 m apart, so they
        # link. Cells of exactly 10 m would put them in cells 1 and -1.
        (10.0, -1e-16),
        # Adjacent floats 8 m apart, so far out that x // w rounds: cells
        # 10 * (1 + 1e-9) m wide, with no term for the coordinates' size,
        # would put them two cells apart.
        (4.292393812873162e16, 4.2923938128731624e16),
    ],
    ids=["across-zero", "far-out"],
)
def test_a_pair_at_the_edge_of_a_cell_is_linked(mode, x0, x1):
    config = validate_scenario(
        {
            "link_mode": mode,
            "horizon": 0.5,
            "nodes": [
                {"id": 0, "x": x0, "y": 0.0, "class": 3},
                {"id": 1, "x": x1, "y": 0.0, "class": 3},
            ],
        }
    )
    engine = Engine(config, 0)
    engine.run(until=0)
    assert engine.links[0] == (1,) and engine.links[1] == (0,)


@pytest.mark.parametrize("mode", ["geometric", "scatternet"])
def test_a_motion_tick_keeps_the_links_tuples_it_does_not_change(mode):
    # Node 2 walks but stays in range of 0 and 1; far off, node 4 walks away
    # from node 3. Tables cache next hops per links tuple object, so the nodes
    # whose links hold must keep the very same tuple.
    config = validate_scenario(
        {
            "link_mode": mode,
            "horizon": 1.0,
            "nodes": [
                {"id": 0, "x": 0.0, "y": 0.0, "class": 3},
                {"id": 1, "x": 5.0, "y": 0.0, "class": 3},
                {"id": 2, "x": -3.0, "y": 0.0, "class": 3, "waypoints": [[1.0, -4.0, 0.0]]},
                {"id": 3, "x": 30.0, "y": 0.0, "class": 3},
                {"id": 4, "x": 35.0, "y": 0.0, "class": 3, "waypoints": [[1.0, 45.0, 0.0]]},
            ],
        }
    )
    engine = Engine(config, 0)
    engine.run(until=0)
    kept = {n: engine.links[n] for n in (0, 1, 2)}
    assert engine.links[3] == (4,)
    engine.run()
    assert engine.links[3] == ()
    for n, links in kept.items():
        assert engine.links[n] is links, n
