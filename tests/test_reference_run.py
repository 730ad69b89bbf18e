"""Whole runs with every fast path swapped for its reference give the same trace.

Each fast path has its own local differential property; this checks them
together over whole runs. The reference run
- drops the sender's cached advertisement vector before each build, so every
  advertisement is built from the table itself;
- forgets what it last relaxed from each sender, so every advertisement takes
  the full relaxation pass (no repeat shortcut, no delta path);
- recomputes every table's equal-cost next hops on every call (no cache);
- sends every forward through the (queued frames, neighbour) candidates and
  ``routing.select_next_hop``, also when only one next hop is left;
- relinks every node whenever any node moves or changes state, instead of
  only the changed ones (each still against its block of grid cells:
  ``test_links_match_the_link_rule_after_every_change`` in
  ``test_simkernel.py`` checks the grid against every pair);
- recomputes every seal keystream (no memo);
- arms one neighbour expiry check per refresh, each acting only if nothing
  was heard since, instead of one live check per pair that re-arms itself;
  it keeps its own last-heard instants and never reads the engine's
  ``liveness`` records;
- services a sender's radio on every enqueue and every arrival, busy or idle,
  full queue or empty, instead of only when it can send;
- queues every repetition of every traffic flow at set-up, instead of one
  event per flow that re-arms itself for the next repetition;
- queues every event, also one due after the horizon, instead of dropping
  it at the push.
"""
from __future__ import annotations

import contextlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings

from bluehop import routing, scenario_path, transport
from bluehop.scenario import TrafficSpec, parse_scenario, validate_scenario
from bluehop.simkernel import NEIGHBOR_MISS_BUDGET, Engine, EventKind, EventQueue
from bluehop.topology import NodeState

from conftest import load_workloads
from test_fuzz import scenarios

GALLERY = ("churn25", "diamond_failover", "figure4", "figure4_norelay", "line5")
# Workload -> how many of its seed-1 pool scenarios to run (the small ones are cheap).
POOL_CASES = {"mobile_mesh": 6, "static_bulk": 1, "scatternet_churn": 3}


@contextlib.contextmanager
def all_reference():
    """Swap every fast path for its reference; yields how often each switch ran."""
    used = Counter()
    make, process, hops, relink = (
        routing.make_advertisement, routing.process_advertisement, routing.next_hops,
        Engine._relink,
    )
    seal_key = transport._seal_key.__wrapped__
    enqueue, try_service = Engine._enqueue_frame, Engine._try_service
    on_arrival = Engine._on_arrival
    start, on_action = Engine._start, Engine._on_scenario_action
    queue_init = EventQueue.__init__
    last_heard = {}  # (engine, node, neighbour) -> instant of the latest refresh

    def make_from_table(table, to_neighbor):
        used["make"] += 1
        table.vector = None
        return make(table, to_neighbor)

    def process_full_pass(table, from_, adv):
        used["process"] += 1
        table.heard.pop(from_, None)
        return process(table, from_, adv)

    def next_hops_uncached(table, dest, links):
        used["hops"] += 1
        table.hops_links = None
        return hops(table, dest, links)

    def relink_everyone(engine, changed):
        used["relink"] += 1
        relink(engine, engine._ids)

    def forward_by_candidates(engine, n, body):
        hops = engine._next_hops(n, body.dst)
        if len(hops) == 1:
            used["forward"] += 1
        chosen = routing.select_next_hop(engine._route_candidates(n, hops))
        if chosen is None:
            engine._drop(n, body, "forward-failure")
        else:
            engine._enqueue_frame(n, chosen, body)

    def seal_key_unmemoised(*args):
        used["seal"] += 1
        return seal_key(*args)

    def refresh_arming_a_check(engine, n, neighbor):
        used["expiry"] += 1
        engine.runtimes[n].known.add(neighbor)
        last_heard[engine, n, neighbor] = engine.now
        engine.queue.schedule(
            engine.now,
            engine.now + NEIGHBOR_MISS_BUDGET * engine.t_adv,
            EventKind.NEIGHBOR_EXPIRY,
            n,
            neighbor,
        )

    def expire_if_unheard_since(engine, n, neighbor):
        if engine.world[n].state is not NodeState.ACTIVE:
            return
        if neighbor not in engine.runtimes[n].known:
            return
        if last_heard[engine, n, neighbor] + NEIGHBOR_MISS_BUDGET * engine.t_adv > engine.now:
            return
        engine._emit("neighbor_expiry", n, {"neighbor": neighbor})
        engine._forget_neighbor(n, neighbor)

    def service_unless_busy(engine, n, radio):
        if radio.busy_until <= engine.now:
            try_service(engine, n, radio)

    def enqueue_and_service(engine, n, to, body):
        used["radio"] += 1
        enqueue(engine, n, to, body)
        engine._try_service(n, engine.radios[n])

    def service_and_arrive(engine, sender, n, body):
        used["radio"] += 1
        engine._try_service(sender, engine.radios[sender])
        on_arrival(engine, sender, n, body)

    def start_queueing_every_repetition(engine):
        config = engine.config
        engine.config = config._replace(traffic=[])
        try:
            start(engine)
        finally:
            engine.config = config
        for spec in config.traffic:
            for k in range(spec.count):
                t = spec.time_hus + k * spec.interval_hus
                if t > engine.horizon:
                    break
                engine.queue.schedule(0, t, EventKind.SCENARIO_ACTION, spec)

    def queue_without_horizon(queue, horizon):
        used["queue"] += 1
        queue_init(queue, math.inf)

    def act_once(engine, spec):
        if isinstance(spec, TrafficSpec):
            used["traffic"] += 1
            engine._send_message(spec.src, spec.dst, spec.payload_bytes)
        else:
            on_action(engine, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "make_advertisement", make_from_table)
        mp.setattr(routing, "process_advertisement", process_full_pass)
        mp.setattr(routing, "next_hops", next_hops_uncached)
        mp.setattr(Engine, "_relink", relink_everyone)
        mp.setattr(Engine, "_forward", forward_by_candidates)
        mp.setattr(transport, "_seal_key", seal_key_unmemoised)
        mp.setattr(Engine, "_refresh_neighbor", refresh_arming_a_check)
        mp.setattr(Engine, "_on_neighbor_expiry", expire_if_unheard_since)
        mp.setattr(Engine, "_try_service", service_unless_busy)
        mp.setattr(Engine, "_enqueue_frame", enqueue_and_service)
        mp.setattr(Engine, "_on_arrival", service_and_arrive)
        mp.setattr(Engine, "_start", start_queueing_every_repetition)
        mp.setattr(Engine, "_on_scenario_action", act_once)
        mp.setattr(EventQueue, "__init__", queue_without_horizon)
        yield used


def assert_reference_trace(config, seed):
    _, fast = Engine(config, seed).run()
    with all_reference():
        _, reference = Engine(config, seed).run()
    assert len(reference) == len(fast)
    for got, want in zip(reference, fast):
        assert got == want


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", GALLERY)
def test_gallery(name, seed):
    assert_reference_trace(parse_scenario(scenario_path(f"{name}.json")), seed)


@pytest.fixture(scope="module")
def pools():
    workloads = load_workloads()
    return {w: workloads.scenarios(w, 1) for w in workloads.POOLS}


@pytest.mark.parametrize(
    "workload,index", [(w, i) for w, count in POOL_CASES.items() for i in range(count)]
)
def test_benchmark_pool(workload, index, pools):
    assert_reference_trace(validate_scenario(pools[workload][index]), 1)


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_fuzzed_runs(config):
    assert_reference_trace(config, 0)


def test_every_switch_reaches_the_engine():
    with all_reference() as used:
        Engine(parse_scenario(scenario_path("diamond_failover.json")), 0).run()
    assert set(used) == {
        "make", "process", "hops", "relink", "forward", "seal", "expiry", "radio", "traffic",
        "queue",
    }
