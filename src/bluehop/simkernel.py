"""Deterministic discrete-event engine driving the whole simulation.

A single time-ordered queue carries motion updates, lifecycle changes,
protocol timers and packet arrivals. Time is an integer half-microsecond
counter. At one instant the motion tick, then the advertisement round, run
right after the events armed when set-up started each node's routing; every
other tie breaks by scheduling order. Every random quantity (hop sequences,
payload seals, synthetic payloads) is drawn from ``transport.seeded_random``
under the engine seed and a named label, so two runs of the same (config,
seed) produce byte-identical traces.
"""
from __future__ import annotations

import gc
import heapq
from collections import deque, namedtuple
from enum import Enum
from itertools import count

from . import baseband, metrics, routing, scatternet, topology, transport
from .scatternet import LinkMode, Scatternet
from .scenario import ActionSpec, ScenarioConfig, TrafficSpec
from .topology import Node, NodeState, Position

MOTION_CADENCE_HUS = 200_000  # 100 ms simulated
NEIGHBOR_MISS_BUDGET = 3      # advertisement periods before a silent peer expires


class CausalityError(ValueError):
    pass


class EventKind(Enum):
    MOTION_UPDATE = "motion_update"
    ADVERTISEMENT_TIMER = "advertisement_timer"
    ACK_TIMER = "ack_timer"
    NEIGHBOR_EXPIRY = "neighbor_expiry"
    PACKET_ARRIVAL = "packet_arrival"
    SCENARIO_ACTION = "scenario_action"

    # Members hash by identity: the run loop looks one up per event, and
    # Enum's own __hash__ is a Python-level call.
    __hash__ = object.__hash__


# EnumType defines ``__getattr__``, so CPython 3.11 reads a member off an Enum
# class by a slow generic lookup; the per-event path reads these constants.
_ACTIVE = NodeState.ACTIVE
_SCATTERNET = LinkMode.SCATTERNET
_ARRIVAL, _EXPIRY = EventKind.PACKET_ARRIVAL, EventKind.NEIGHBOR_EXPIRY
_ACTION = EventKind.SCENARIO_ACTION
_WITHDRAW, _ADVERTISEMENT = routing.MessageKind.WITHDRAW, routing.MessageKind.ADVERTISEMENT


# ``args`` holds the positional arguments of the kind's handler.
Event = namedtuple("Event", "time sequence kind args")


# Builds an Event without the namedtuple's Python-level ``__new__``.
_new_event = tuple.__new__


class EventQueue:
    """Min-heap of the events that can still run, ordered by (time, scheduling
    sequence); ``heap[0]`` is next.

    An event due after ``horizon`` never runs, so it is never queued.
    """

    def __init__(self, horizon: int) -> None:
        self.heap: list[Event] = []
        self.horizon = horizon
        self._sequence = 0

    def __len__(self) -> int:
        return len(self.heap)

    def schedule(self, now: int, time: int, kind: EventKind, *args, sequence=None) -> None:
        """Push an event under the next number, or under ``sequence`` taken with ``reserve``.

        An event due after the horizon is dropped; the events queued keep their
        order. At most one event is queued under a reserved number at a time,
        so no two queued events share a (time, sequence) key.
        """
        if time < now:
            raise CausalityError(f"event at {time} scheduled from {now}")
        if time > self.horizon:
            return
        if sequence is None:
            sequence = self._sequence
            self._sequence += 1
        heapq.heappush(self.heap, _new_event(Event, (time, sequence, kind, args)))

    def reserve(self) -> int:
        """Take the next sequence number for an event that is pushed later under it."""
        self._sequence += 1
        return self._sequence - 1

    def pop(self) -> Event:
        return heapq.heappop(self.heap)


Body = routing.ControlMessage | transport.DataPacket | transport.Ack


# Frame types as named in ``packet_lost`` trace records: by body type, and by
# kind for control messages; a None body is an advertisement never built.
_FTYPE = {
    type(None): "adv",
    transport.DataPacket: "data",
    transport.Ack: "ack",
    routing.MessageKind.ADVERTISEMENT: "adv",
    routing.MessageKind.WITHDRAW: "withdraw",
    routing.MessageKind.DISCOVERY_REQUEST: "disco",
}


class Radio:
    """A node's transmitter: its queue of (neighbour, body) frames, where a None
    body is an advertisement built at send time, and the end of its airtime.

    ``depth`` counts the frames queued to each neighbour, advertisements
    included, and ``advs`` holds the neighbours with an advertisement queued:
    they coalesce to one per link. Only ``Engine._enqueue_frame`` appends,
    ``Engine._try_service`` pops and ``Engine._power_off`` empties. ``cut`` is
    the airtime end of a frame whose sender powered off while it was on air.
    """

    __slots__ = ("txq", "busy_until", "advs", "depth", "cut")

    def __init__(self) -> None:
        self.txq: deque[tuple[int, Body | None]] = deque()
        self.busy_until = 0
        self.advs: set[int] = set()
        self.depth: dict[int, int] = {}
        self.cut: int | None = None


class NodeRuntime:
    """Per-node protocol state, rebuilt at every power-on."""

    def __init__(self, table: routing.RoutingTable):
        self.table = table
        # Neighbours heard since power-on and not forgotten since.
        self.known: set[int] = set()
        self.reassembly: dict[int, dict[int, bytes]] = {}


def _t_us(t_hus: int):
    return t_hus // 2 if t_hus % 2 == 0 else t_hus / 2


class Engine:
    """One simulation run: world, protocol state, queue, metrics and trace.

    ``trace`` is where the run appends its records, numbered from 0 in
    ``seq``: any object with ``append(record)``, by default a fresh list that
    holds the whole trace.
    """

    # Slots, not an instance dict: CPython 3.11 shares a dict's keys across
    # instances only up to 29 attributes, and past that every ``self.x`` load
    # on the per-frame path is a hinted dict lookup instead of a slot read.
    __slots__ = (
        "config", "seed", "mode", "inf", "t_adv", "_expiry_hus", "t_ack", "retries",
        "bits_per_slot", "horizon", "now", "queue", "trace", "_record_seq", "metrics",
        "world", "net", "runtimes", "radios", "_hop_key", "_hops", "_msg_counter",
        "transfers", "_ids", "_movers", "near", "links", "_cell_w", "_cells", "_cell_of",
        "_blocks", "liveness", "_motion_seq", "_round_seq",
    )

    def __init__(self, config: ScenarioConfig, seed: int, trace=None):
        self.config = config
        self.seed = seed
        self.mode = config.link_mode
        self.inf = config.protocol.inf
        self.t_adv = config.protocol.t_adv_hus
        self._expiry_hus = NEIGHBOR_MISS_BUDGET * self.t_adv
        self.t_ack = config.protocol.t_ack_hus
        self.retries = config.protocol.retries
        self.bits_per_slot = baseband.BITS_PER_SLOT * config.rate_multiplier
        self.horizon = config.horizon_hus
        self.now = 0
        self.queue = EventQueue(self.horizon)
        self.trace = [] if trace is None else trace
        self._record_seq = count()
        self.metrics = metrics.Metrics()
        self.world: dict[int, Node] = {}
        self.net: Scatternet | None = None
        self.runtimes: dict[int, NodeRuntime] = {}
        self.radios: dict[int, Radio] = {}
        # One hop key per run, drawn only in scatternet mode. Each piconet's hop
        # sequence, by piconet id, is rebuilt at each formation from
        # key ^ master, which hop_channel's mix spreads.
        self._hop_key = (
            transport.seeded_random("hop", seed).getrandbits(64) if self.mode is _SCATTERNET else 0
        )
        self._hops: list[baseband.HopSequence] = []
        self._msg_counter = 0
        # Every message's sender-side state, kept engine-wide so a reboot or a
        # late packet can never lose or double-count an outcome.
        self.transfers: dict[int, transport.PendingTransfer] = {}
        for spec in config.nodes:
            start = Position(spec.x, spec.y)
            path = [(t, Position(x, y)) for t, x, y in spec.waypoints]
            if path and path[0][0] != 0:
                path.insert(0, (0, start))
            self.world[spec.id] = Node(start, spec.range_m, spec.state, path)
        self._ids = sorted(self.world)
        self._movers = [n for n in self._ids if self.world[n].path]
        # The in-range graph, re-tested only for the pairs a change touches.
        self.near: dict[int, set[int]] = {n: set() for n in self._ids}
        self.links: dict[int, tuple[int, ...]] = dict.fromkeys(self._ids, ())
        # The grid: square cells ``_cell_w`` wide, keyed (x // w, y // w).
        # ``_cells`` holds each cell's nodes, ``_cell_of`` each node's cell and
        # ``_blocks`` each cell's 3 x 3 block, as the cells in it that exist: a
        # cell is made when a node first enters it and kept. Two nodes in
        # range always share a block: math.dist rounds the coordinate difference
        # and the norm, so a pair it puts in range is less than
        # max_range * (1 + 1e-15) apart along each axis, under w; and float floor
        # division is exact while |x / w| < 2**51, which the extent term keeps,
        # since motion interpolates between waypoints. Without the margin,
        # class-3 radios at x = 10.0 and x = -1e-16, 10.0 m apart by math.dist,
        # fall in cells 1 and -1. A position that overflowed to infinity gets a
        # nan cell, next to no other.
        extent = max((abs(c) for node in self.world.values()
                      for _, p in [(0, node.position), *node.path] for c in p), default=0.0)
        max_range = max((node.range_m for node in self.world.values()), default=1.0)
        self._cell_w = max_range * (1 + 1e-9) + extent * 2**-50
        self._cells: dict[tuple[float, float], dict[int, Node]] = {}
        self._cell_of: dict[int, tuple[float, float]] = {}
        self._blocks: dict[tuple[float, float], list[dict[int, Node]]] = {}
        # Neighbour expiry keeps at most one queued check per (node, neighbour)
        # pair. ``liveness[n][m]`` is (instant of the latest refresh, number
        # taken by the first refresh at that instant) and exists while the
        # pair's check is queued, or while that check would come due after the
        # horizon, where the queue drops it: a silent neighbour expires at
        # (instant + _expiry_hus, number), where the first check armed at that
        # instant would act if every refresh armed its own.
        self.liveness: dict[int, dict[int, tuple[int, int]]] = {n: {} for n in self._ids}
        self._start()

    # ------------------------------------------------------------------ setup

    def _start(self) -> None:
        topology.apply_motion(self.world, 0)
        self._relink(self._ids)
        for n in self._ids:
            if self.world[n].state is _ACTIVE:
                self._init_node_routing(n)
        # The periodic timers re-arm themselves under sequence numbers taken
        # here. So at any instant the motion tick, then the advertisement
        # round, run after the events armed above and before all others.
        self._motion_seq, self._round_seq = self.queue.reserve(), self.queue.reserve()
        if self._movers:
            self._rearm(EventKind.MOTION_UPDATE, MOTION_CADENCE_HUS, self._motion_seq)
        self._rearm(EventKind.ADVERTISEMENT_TIMER, self.t_adv, self._round_seq)
        for action in self.config.actions:
            self.queue.schedule(0, action.time_hus, _ACTION, action)
        # Each flow is one event that re-arms itself for its next repetition
        # under a number taken here, in file order after the actions, so at
        # one instant flows run after the actions and before every event the
        # run schedules, in the order queueing each repetition here gave.
        for spec in self.config.traffic:
            seq = self.queue.reserve()
            self.queue.schedule(0, spec.time_hus, _ACTION, spec, 0, seq, sequence=seq)

    def _rearm(self, kind: EventKind, period: int, sequence: int, *args) -> None:
        self.queue.schedule(self.now, self.now + period, kind, *args, sequence=sequence)

    def run(self, until: int | None = None):
        """Advance the run to ``until`` (default: the horizon). Resumable.

        The cyclic garbage collector is off while the run advances, and the
        caller's setting is back on return, also when a handler raises: a run
        makes no reference cycles, so a collection inside it would only
        re-scan the live records and routing state.
        """
        # Reference counts free all that a run drops; no cycle is left for the
        # collector (tests/test_simkernel.py::TestCollectorHoldOff checks it).
        enabled = gc.isenabled()
        gc.disable()
        try:
            handlers = {
                EventKind.MOTION_UPDATE: self._on_motion,
                EventKind.ADVERTISEMENT_TIMER: self._on_adv_round,
                EventKind.ACK_TIMER: self._on_ack_timer,
                EventKind.NEIGHBOR_EXPIRY: self._on_neighbor_expiry,
                EventKind.PACKET_ARRIVAL: self._on_arrival,
                EventKind.SCENARIO_ACTION: self._on_scenario_action,
            }
            limit = self.horizon if until is None else min(until, self.horizon)
            heap, pop = self.queue.heap, self.queue.pop
            while heap and heap[0][0] <= limit:
                time, _, kind, args = pop()
                self.now = time
                handlers[kind](*args)
            self.now = max(self.now, limit)
            return self.metrics, self.trace
        finally:
            if enabled:
                gc.enable()

    # ------------------------------------------------------------ trace/links

    def _emit(self, kind: str, node: int | None, detail: dict) -> None:
        t = self.now
        record = {
            "t_us": t // 2 if t % 2 == 0 else t / 2,  # _t_us, inlined on the hot path
            "seq": next(self._record_seq),
            "kind": kind,
            "node": node,
            "detail": detail,
        }
        self.trace.append(record)
        metrics.record_event(self.metrics, record)

    def _relink(self, changed: list[int]) -> None:
        """Bring the links up to date after the ``changed`` nodes moved or changed state.

        Each changed node moves to its cell, and every pair that touches a
        changed node is re-tested once, against the nodes in the block around
        it; an old neighbour outside the block is out of range. The scatternet
        is re-formed when churn broke a piconet or orphaned a node. Only the
        nodes whose in-range set changed, or whose granted links a re-form
        changed, get a new links tuple, so every other table keeps its cached
        next hops.
        """
        world, near_of, cells, cell_of, blocks, w = (
            self.world, self.near, self._cells, self._cell_of, self._blocks, self._cell_w
        )
        moved = []
        for a in changed:
            node = world[a]
            x, y = node.position
            cell = (x // w, y // w)
            old = cell_of.get(a)
            if cell != old:
                if old is not None:
                    del cells[old][a]
                    moved.append(a)
                if cell not in cells:
                    # A new cell joins the blocks around it, and they join its own.
                    cells[cell] = {}
                    block = blocks[cell] = []
                    for i in (-1, 0, 1):
                        for j in (-1, 0, 1):
                            around = (cell[0] + i, cell[1] + j)
                            if around in cells:
                                block.append(cells[around])
                                if around != cell:
                                    blocks[around].append(cells[cell])
                cells[cell][a] = node
                cell_of[a] = cell
        # A neighbour left outside a moved node's block is out of range; the
        # nodes whose in-range set changes are ``touched``.
        touched = set()
        for a in moved:
            cx, cy = cell_of[a]
            near = near_of[a]
            for b in list(near):
                bx, by = cell_of[b]
                if abs(bx - cx) <= 1 and abs(by - cy) <= 1:  # false for a nan cell
                    continue
                near.discard(b)
                near_of[b].discard(a)
                touched.add(a)
                touched.add(b)
        in_range, done = topology.in_range, set()
        for a in changed:
            node, near = world[a], near_of[a]
            done.add(a)
            for cell in blocks[cell_of[a]]:
                for b, other in cell.items():
                    if b not in done and in_range(node, other) is not (b in near):
                        # The pair's link came or went.
                        if b in near:
                            near.remove(b)
                            near_of[b].remove(a)
                        else:
                            near.add(b)
                            near_of[b].add(a)
                        touched.add(a)
                        touched.add(b)
        if self.mode is _SCATTERNET and (self.net is None or self._scatternet_broken()):
            active = {
                n: near for n, near in near_of.items() if world[n].state is _ACTIVE
            }
            self.net = scatternet.form_scatternet(active)
            self._hops = [
                baseband.HopSequence(seed=self._hop_key ^ p.master) for p in self.net.piconets
            ]
            self._emit("scatternet", None, scatternet.scatternet_to_json(self.net))
            touched = self._ids  # a re-form may move any grant
        granted = self.net.links if self.mode is _SCATTERNET else None
        for n in touched:
            near = near_of[n] if granted is None else [m for m in near_of[n] if (n, m) in granted]
            links = tuple(sorted(near))
            if links != self.links[n]:  # an equal tuple keeps the table's cache
                self.links[n] = links

    def _scatternet_broken(self) -> bool:
        placed = set()
        for pico in self.net.piconets:
            if self.world[pico.master].state is not _ACTIVE:
                return True
            heard = self.near[pico.master]
            placed.add(pico.master)
            for member in pico.active_slaves + pico.parked_slaves:
                if self.world[member].state is _ACTIVE and member not in heard:
                    return True
                placed.add(member)
        return any(
            node.state is _ACTIVE and n not in placed for n, node in self.world.items()
        )

    # -------------------------------------------------------------- protocol

    def _init_node_routing(self, n: int) -> None:
        neighbors = self.links[n]
        self.runtimes[n] = NodeRuntime(table=routing.init_routing(n, neighbors, self.inf))
        self.radios.setdefault(n, Radio())
        for m in neighbors:
            self._refresh_neighbor(n, m)
            self._enqueue_adv(n, m)

    def _refresh_neighbor(self, n: int, neighbor: int) -> None:
        """Note ``neighbor`` as heard now; arm a check that expires it unless the pair has one."""
        now = self.now
        self.runtimes[n].known.add(neighbor)
        pairs = self.liveness[n]
        live = pairs.get(neighbor)
        if live is None or live[0] != now:
            seq = self.queue.reserve()
            pairs[neighbor] = (now, seq)
            if live is None:
                self.queue.schedule(now, now + self._expiry_hus, _EXPIRY, n, neighbor, sequence=seq)

    def _enqueue_adv(self, n: int, to: int) -> None:
        # One queued advertisement per neighbour; content built at send.
        if to not in self.radios[n].advs:
            self._enqueue_frame(n, to, None)

    def _broadcast_advs(self, n: int) -> None:
        for m in self.links[n]:
            self._enqueue_adv(n, m)

    def _enqueue_frame(self, n: int, to: int, body: Body | None) -> None:
        radio = self.radios[n]
        radio.txq.append((to, body))
        radio.depth[to] = radio.depth.get(to, 0) + 1
        if body is None:
            radio.advs.add(to)
        if radio.busy_until <= self.now:
            self._try_service(n, radio)

    def _next_hops(self, n: int, dest: int) -> list[int]:
        """``n``'s minimal-cost next hops toward ``dest`` over its current links."""
        return routing.next_hops(self.runtimes[n].table, dest, self.links[n])

    def _route_candidates(self, n: int, hops: list[int]) -> list[tuple[int, int]]:
        """(frames queued to it, neighbour) for each of ``n``'s next hops ``hops``."""
        depth = self.radios[n].depth
        return [(depth.get(m, 0), m) for m in hops]

    def _trigger_discovery(self, n: int, target: int) -> None:
        self._emit("discovery", n, {"target": target})
        msg = routing.trigger_discovery(self.runtimes[n].table, target)
        for m in self.links[n]:
            self._enqueue_frame(n, m, msg)

    def _forget_neighbor(self, n: int, neighbor: int) -> None:
        """Drop a departed or silent neighbour and poison the routes through it."""
        rt = self.runtimes[n]
        rt.known.discard(neighbor)
        if routing.handle_withdraw(rt.table, neighbor):
            self._broadcast_advs(n)

    # ----------------------------------------------------------------- radio

    def _try_service(self, n: int, radio: Radio) -> None:
        """Start the next queued transmission of ``n``, whose radio is idle.

        Callers check ``busy_until <= now`` first; a busy radio is serviced by
        the arrival that ends its airtime. Only an active node has frames
        queued: power-off empties the queue.
        """
        now = self.now
        while radio.txq:
            to, body = radio.txq.popleft()
            radio.depth[to] -= 1
            if body is None:
                radio.advs.remove(to)
                # Content is built at transmission time so a queued triggered
                # advertisement always carries the latest table.
                body = routing.make_advertisement(self.runtimes[n].table, to)
            if self.mode is _SCATTERNET:
                link = self.net.link_piconet(n, to)
                if link is None:
                    self._lost(n, "to", to, body, "no_slot_grant")
                    continue
                pid, parity = link
                start = baseband.next_tx_start_hus(now, parity)
                channel = baseband.hop_channel(self._hops[pid], start // baseband.SLOT_HUS)
            else:
                start, channel = now, None
            body_type = type(body)
            if body_type is transport.DataPacket:
                slots = body.slots
                kind, detail = "data_tx", {
                    "to": to, "msg_id": body.msg_id, "fragment": body.fragment_index, "slots": slots
                }
            elif body_type is transport.Ack:
                slots, kind, detail = 1, "ack_tx", {"to": to, "msg_id": body.msg_id}
            else:
                slots, kind, detail = 1, "ctrl_sent", {"to": to, "ctrl": body.kind._value_}
            if channel is not None:
                detail["channel"] = channel
            radio.busy_until = start + baseband.tx_duration_hus(slots)
            self._emit(kind, n, detail)
            self.queue.schedule(now, radio.busy_until, _ARRIVAL, n, to, body)
            return

    def _lost(self, n: int, side: str, peer: int, body: Body | None, where: str) -> None:
        """Trace a frame lost at ``n``; ``side`` ("to" or "from") names its peer.

        A lost data frame or ack names its message; a data loss also tags its
        transfer, as a drop does.
        """
        body_type = type(body)
        ftype = _FTYPE[body.kind if body_type is routing.ControlMessage else body_type]
        detail = {side: peer, "ftype": ftype, "where": where}
        if body_type is transport.DataPacket:
            detail["msg_id"], detail["fragment"] = body.msg_id, body.fragment_index
            self.transfers[body.msg_id].last_drop_class = "frame-lost"
        elif body_type is transport.Ack:
            detail["msg_id"] = body.msg_id
        self._emit("packet_lost", n, detail)

    # ---------------------------------------------------------- timers/churn

    def _on_motion(self) -> None:
        self._rearm(EventKind.MOTION_UPDATE, MOTION_CADENCE_HUS, self._motion_seq)
        topology.apply_motion(self.world, self.now)
        self._emit("motion", None, {})
        self._relink(self._movers)

    def _on_adv_round(self) -> None:
        """Every active node advertises to each of its links, in id order."""
        self._rearm(EventKind.ADVERTISEMENT_TIMER, self.t_adv, self._round_seq)
        for n in self._ids:
            if self.world[n].state is _ACTIVE:
                self._emit("adv_timer", n, {})
                self._broadcast_advs(n)

    def _on_neighbor_expiry(self, n: int, neighbor: int) -> None:
        """Expire a silent neighbour, or re-arm the pair's check at its next due time."""
        pairs = self.liveness[n]
        heard, seq = pairs[neighbor]
        live = neighbor in self.runtimes[n].known and self.world[n].state is _ACTIVE
        due = heard + self._expiry_hus
        if heard == self.now or live and due > self.now:
            # Refreshed since this check was armed. A pair heard at this very
            # instant keeps its check even if it is forgotten or off, so a later
            # refresh at this instant keeps the instant's number.
            self.queue.schedule(self.now, due, _EXPIRY, n, neighbor, sequence=seq)
            return
        del pairs[neighbor]  # the next refresh arms a new check
        if live:
            # A silent neighbour is treated exactly like a withdraw from it.
            self._emit("neighbor_expiry", n, {"neighbor": neighbor})
            self._forget_neighbor(n, neighbor)

    def _on_scenario_action(self, spec: TrafficSpec | ActionSpec, k: int = 0, seq: int = 0) -> None:
        """Run an action, or send repetition ``k`` of a flow and re-arm the next."""
        if isinstance(spec, TrafficSpec):
            if k + 1 < spec.count:
                self._rearm(_ACTION, spec.interval_hus, seq, spec, k + 1, seq)
            self._send_message(spec.src, spec.dst, spec.payload_bytes)
        elif spec.action == "withdraw":
            self._withdraw(spec.node)
        else:
            self._apply_state(spec.node, spec.state)

    def _withdraw(self, n: int) -> None:
        """Voluntary departure: farewell to the neighbours, then power off.

        The node is gone at once, so farewells skip the transmit queue and slot
        discipline: traced as ``ctrl_sent`` with no ``channel``, they arrive a slot later.
        """
        neighbors = self.links[n]
        self._emit("withdraw_action", n, {"neighbors": list(neighbors)})
        msg = routing.ControlMessage(routing.MessageKind.WITHDRAW, origin=n)
        for m in neighbors:
            self._emit("ctrl_sent", n, {"to": m, "ctrl": "withdraw"})
            self.queue.schedule(self.now, self.now + baseband.SLOT_HUS, _ARRIVAL, n, m, msg)
        self._apply_state(n, NodeState.OFF)

    def _apply_state(self, n: int, state: NodeState) -> None:
        node = self.world[n]
        was_active = node.state is _ACTIVE
        node.state = state
        self._emit("state_change", n, {"state": state.value})
        if was_active and state is not _ACTIVE:
            self._power_off(n)
        self._relink([n])
        if state is _ACTIVE and not was_active:
            # A node that rejoins finds its immediate neighbours afresh.
            self._init_node_routing(n)

    def _power_off(self, n: int) -> None:
        """Lose every frame ``n`` has queued, at once, and the frame it has on air.

        The queued frames are lost now, not when the airtime ends, since the
        node may be on again by then; the frame on air is lost at its arrival.
        """
        radio = self.radios[n]
        if radio.busy_until > self.now:
            radio.cut = radio.busy_until
        for to, body in radio.txq:
            self._lost(n, "to", to, body, "sender_inactive")
        radio.txq.clear()
        radio.advs.clear()
        radio.depth.clear()

    # ------------------------------------------------------------- transport

    def _send_message(self, src: int, dst: int, nbytes: int) -> None:
        msg_id = self._msg_counter
        self._msg_counter += 1
        if self.world[src].state is not _ACTIVE:
            self._emit(
                "msg_rejected",
                src,
                {"msg_id": msg_id, "dst": dst, "bytes": nbytes, "reason": "src not active"},
            )
            return
        plaintext = transport.make_payload(self.seed, msg_id, nbytes)
        sealed = transport.seal_payload(plaintext, src, dst, self.seed)
        pieces = transport.fragment_sealed(sealed, self.bits_per_slot)
        self._emit(
            "msg_send",
            src,
            {
                "msg_id": msg_id,
                "dst": dst,
                "bytes": nbytes,
                "fragments": len(pieces),
                "plaintext": plaintext.hex(),
            },
        )
        transfer = self.transfers[msg_id] = transport.PendingTransfer(
            msg_id=msg_id,
            src=src,
            dst=dst,
            fragments=pieces,
            sent_at=self.now,
        )
        if not self._send_over_first_hop(transfer):
            self._trigger_discovery(src, dst)
        self._arm_ack_timer(transfer)

    def _send_over_first_hop(self, transfer: transport.PendingTransfer) -> bool:
        """Queue every fragment over a first hop, preferring an untried one.

        Returns False when the source knows no route at all.
        """
        hops = self._next_hops(transfer.src, transfer.dst)
        first = transport.choose_first_hop(
            self._route_candidates(transfer.src, hops), transfer.routes_tried
        )
        if first is None:
            return False
        transfer.routes_tried.add(first)
        for index, piece in enumerate(transfer.fragments):
            pkt = transport.DataPacket(
                msg_id=transfer.msg_id,
                src=transfer.src,
                dst=transfer.dst,
                fragment_index=index,
                fragment_count=len(transfer.fragments),
                sealed_payload=piece,
                payload_hex=piece.hex(),
                slots=baseband.slots_for_payload(len(piece) * 8, self.bits_per_slot),
                hop_trace=[transfer.src],
            )
            self._enqueue_frame(transfer.src, first, pkt)
        return True

    def _arm_ack_timer(self, transfer: transport.PendingTransfer) -> None:
        transfer.deadline = self.now + self.t_ack
        self.queue.schedule(
            self.now, transfer.deadline, EventKind.ACK_TIMER, transfer, transfer.deadline
        )

    def _on_ack_timer(self, transfer: transport.PendingTransfer, deadline: int) -> None:
        """Retry or resolve the transfer; the source's power state only gates resends."""
        if transfer.deadline != deadline:
            return  # resolved or re-armed since this timer was set
        src, msg_id = transfer.src, transfer.msg_id
        retries_left = self.retries - transfer.retransmissions
        self._emit("ack_timeout", src, {"msg_id": msg_id, "retries_left": retries_left})
        if transfer.delivered:
            # Delivered but the ack never made it back; the transfer is done.
            transfer.deadline = None
            return
        if retries_left <= 0:
            transfer.deadline = None
            transfer.failed = True
            # A message that never found a first hop never left its source.
            cls = transfer.last_drop_class or (
                "retry-exhausted" if transfer.routes_tried else "no-route"
            )
            self._emit(
                "msg_failed",
                src,
                {"msg_id": msg_id, "class": cls, "retries": transfer.retransmissions},
            )
            return
        transfer.retransmissions += 1
        if self.world[src].state is _ACTIVE:
            self._trigger_discovery(src, transfer.dst)
            self._send_over_first_hop(transfer)
        self._arm_ack_timer(transfer)

    # --------------------------------------------------------------- arrival

    def _on_arrival(self, sender: int, n: int, body: Body) -> None:
        radio = self.radios[sender]
        if radio.txq and radio.busy_until <= self.now:
            self._try_service(sender, radio)
        if radio.cut == self.now:
            # The frame on air when its sender powered off. A farewell due at
            # this instant was queued after it, so it arrives after it.
            radio.cut = None
            self._lost(n, "from", sender, body, "sender_inactive")
            return
        if self.world[n].state is not _ACTIVE:
            self._lost(n, "from", sender, body, "receiver_inactive")
            return
        linked = sender in self.links[n]
        body_type = type(body)
        if body_type is routing.ControlMessage:
            kind = body.kind
            if kind is _WITHDRAW:
                # The sender is already gone; the farewell is honoured regardless.
                self._emit("ctrl_rx", n, {"from": sender, "ctrl": "withdraw"})
                self._forget_neighbor(n, sender)
            elif not linked:
                self._emit("stale_ctrl", n, {"from": sender, "ctrl": kind._value_})
            elif kind is _ADVERTISEMENT:
                self._on_ctrl_adv(n, sender, body)
            else:
                self._on_ctrl_disco(n, sender, body)
        elif not linked:
            self._lost(n, "from", sender, body, "link_down")
        elif body_type is transport.DataPacket:
            self._on_data(n, sender, body)
        else:
            self._on_ack(n, sender, body)

    def _on_ctrl_adv(self, n: int, sender: int, adv: routing.ControlMessage) -> None:
        self._emit("ctrl_rx", n, {"from": sender, "ctrl": "advertisement"})
        self._refresh_neighbor(n, sender)
        if routing.process_advertisement(self.runtimes[n].table, sender, adv):
            self._broadcast_advs(n)

    def _on_ctrl_disco(self, n: int, sender: int, msg: routing.ControlMessage) -> None:
        self._emit(
            "ctrl_rx", n, {"from": sender, "ctrl": "discovery_request", "target": msg.target}
        )
        self._refresh_neighbor(n, sender)
        # Every receiver answers with a full advertisement toward the asker.
        self._enqueue_adv(n, sender)
        fwd = routing.forward_discovery(self.runtimes[n].table, msg)
        if fwd is None:
            return
        for m in self.links[n]:
            if m != sender:
                self._enqueue_frame(n, m, fwd)

    def _on_data(self, n: int, sender: int, pkt: transport.DataPacket) -> None:
        pkt.hop_trace.append(n)
        self._emit(
            "data_rx",
            n,
            {
                "from": sender,
                "msg_id": pkt.msg_id,
                "fragment": pkt.fragment_index,
                "payload": pkt.payload_hex,
                "hop_trace": list(pkt.hop_trace),
            },
        )
        if n == pkt.dst:
            self._deliver_fragment(n, pkt)
        elif len(pkt.hop_trace) > self.inf:
            self._drop(n, pkt, "ttl-drop")
        else:
            self._forward(n, pkt)

    def _on_ack(self, n: int, sender: int, ack: transport.Ack) -> None:
        if n == ack.dst:
            self._emit("ack_rx", n, {"msg_id": ack.msg_id, "from": sender})
            self.transfers[ack.msg_id].deadline = None
            return
        ack.hops += 1
        if ack.hops > self.inf:
            self._drop(n, ack, "ttl-drop")
        else:
            self._forward(n, ack)

    def _forward(self, n: int, body: transport.DataPacket | transport.Ack) -> None:
        """Queue a data fragment or ack toward its destination, or drop it."""
        hops = self._next_hops(n, body.dst)
        if len(hops) == 1:  # no tie to break
            self._enqueue_frame(n, hops[0], body)
            return
        chosen = routing.select_next_hop(self._route_candidates(n, hops))
        if chosen is None:
            self._drop(n, body, "forward-failure")
        else:
            self._enqueue_frame(n, chosen, body)

    def _drop(self, n: int, body: transport.DataPacket | transport.Ack, cls: str) -> None:
        """Discard a data fragment or ack; a data drop also tags its transfer."""
        is_data = isinstance(body, transport.DataPacket)
        fragment = body.fragment_index if is_data else -1
        self._emit("drop", n, {"msg_id": body.msg_id, "fragment": fragment, "class": cls})
        if is_data:
            self.transfers[body.msg_id].last_drop_class = cls

    def _deliver_fragment(self, n: int, pkt: transport.DataPacket) -> None:
        rt = self.runtimes[n]
        transfer = self.transfers[pkt.msg_id]
        if transfer.delivered:
            self._send_ack(n, pkt)  # the earlier ack may have been lost
            return
        frags = rt.reassembly.setdefault(pkt.msg_id, {})
        if pkt.fragment_index in frags:
            return  # duplicate fragment, at-most-once delivery
        frags[pkt.fragment_index] = pkt.sealed_payload
        if len(frags) < pkt.fragment_count:
            return
        sealed = b"".join(frags[i] for i in range(pkt.fragment_count))
        plaintext = transport.open_payload_at(n, sealed, pkt.src, pkt.dst, self.seed)
        transfer.delivered = True
        del rt.reassembly[pkt.msg_id]
        if transfer.failed:
            # The sender already gave up on this message; keep the outcome
            # partition intact and only note the late arrival.
            self._emit("late_delivery", n, {"msg_id": pkt.msg_id})
            return
        self._emit(
            "delivery",
            n,
            {
                "msg_id": pkt.msg_id,
                "src": pkt.src,
                "bytes": len(plaintext),
                "hops": len(pkt.hop_trace) - 1,
                "latency_us": _t_us(self.now - transfer.sent_at),
                "retries": transfer.retransmissions,
                "plaintext": plaintext.hex(),
            },
        )
        self._send_ack(n, pkt)

    def _send_ack(self, n: int, pkt: transport.DataPacket) -> None:
        self._forward(n, transport.Ack(msg_id=pkt.msg_id, dst=pkt.src))

    # ----------------------------------------------------------------- dumps

    def routing_tables_json(self) -> list[dict]:
        dumps = []
        for n in sorted(self.runtimes):
            table = self.runtimes[n].table
            dumps.append(
                {
                    "node": n,
                    "time": _t_us(self.now),
                    "entries": [
                        {
                            "dest": d,
                            "next_hop": table.entries[d].next_hop,
                            "cost": table.entries[d].cost,
                        }
                        for d in sorted(table.entries)
                    ],
                }
            )
        return dumps

    def topo_json(self) -> dict:
        out = {
            "adjacency": {
                str(n): list(self.links[n]) for n in sorted(self.world)
            }
        }
        if self.mode is _SCATTERNET and self.net is not None:
            out["scatternet"] = scatternet.scatternet_to_json(self.net)
        return out


def run_scenario(config: ScenarioConfig, seed: int) -> tuple[metrics.Metrics, list[dict]]:
    """Execute a validated scenario to its horizon."""
    engine = Engine(config, seed)
    return engine.run()
