"""Modified distance-vector routing for churning short-range networks.

Each node keeps a table of (destination, next hop, hop cost) entries seeded
from its immediate neighbours, exchanges its full vector with neighbours on
a regular basis, and relaxes costs Bellman-Ford style. Split horizon with
poisoned reverse plus a hard cost cap keep count-to-infinity bounded, a
withdraw message lets a node leave politely, and an on-demand discovery
flood solicits ordinary advertisements when a sender lacks a route.

Routing costs what changed: a table builds one cost vector per change and
shares it across receivers, and a receiver relaxes only the destinations that
changed since the vector it last relaxed from the same sender, as RIP
triggered updates (RFC 2453 section 3.10.1) and DSDV incremental dumps carry
only changed routes.
"""
from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

INF = 16  # cost cap; entries at INF are unreachable
# How many records a chain of ``ChangeRecord``s keeps. A relaxation that would
# need an older record takes the full pass, so memory stays proportional to
# table size.
CHANGE_DEPTH = 8


class MessageKind(Enum):
    ADVERTISEMENT = "advertisement"
    WITHDRAW = "withdraw"
    DISCOVERY_REQUEST = "discovery_request"


# Read per advertisement; EnumType's ``__getattr__`` makes a class read slow.
_ADVERTISEMENT = MessageKind.ADVERTISEMENT


class ChangeRecord:
    """The destinations that one step of a table changed.

    A table keeps two chains of them: one record per vector built, naming the
    entries changed since the vector before, and one per rise, naming the
    entries raised or deleted. ``parent`` is the step before. Only records
    chain, so a superseded vector's costs are freed as soon as no message
    holds them.
    """

    __slots__ = ("changed", "parent")

    def __init__(self, changed: tuple[int, ...], parent: ChangeRecord | None):
        self.changed = changed
        self.parent = parent


# Where every table's rise chain starts. Never cut, so it is reachable from a
# chain only while none of that chain's records has been cut away.
_NO_RISES = ChangeRecord((), None)


def _push(head: ChangeRecord | None, changed: Iterable[int]) -> ChangeRecord:
    """A record of ``changed`` on top of ``head``, its chain cut to CHANGE_DEPTH records."""
    top = record = ChangeRecord(tuple(changed), head)
    for _ in range(CHANGE_DEPTH - 1):
        record = record.parent
        if record is None or record.parent is None:
            return top
    record.parent = None
    return top


def _since(head: ChangeRecord | None, seen: ChangeRecord, dests: set[int]) -> bool:
    """Add what the records from ``head`` back to ``seen`` changed to ``dests``.

    False when the chain was cut before it reached ``seen``.
    """
    while head is not seen:
        if head is None:
            return False
        dests.update(head.changed)
        head = head.parent
    return True


class Vector:
    """One table state's costs, shared by the advertisements to every receiver.

    Never mutated once built.
    """

    __slots__ = ("inf", "costs", "record")

    def __init__(self, inf: int, costs: dict[int, int], record: ChangeRecord):
        self.inf = inf
        self.costs = costs
        self.record = record


class ControlMessage:
    """An advertisement, withdraw or discovery request.

    An advertisement from make_advertisement carries its sender's shared
    ``vector`` and the frozen set of destinations ``poisoned`` toward its
    receiver, and builds ``entries`` only when read.
    """

    __slots__ = ("kind", "origin", "target", "ttl", "vector", "poisoned", "_entries")

    def __init__(self, kind: MessageKind, origin: int, target: int | None = None,
                 ttl: int = 0):
        self.kind = kind
        self.origin = origin
        self.target = target  # discovery payload
        self.ttl = ttl
        self.vector: Vector | None = None
        self.poisoned: frozenset[int] = frozenset()
        self._entries: tuple[tuple[int, int], ...] | None = None

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """Advertisement payload: (destination, cost) pairs sorted by destination."""
        if self._entries is None:
            vec, poisoned = self.vector, self.poisoned
            self._entries = tuple(
                sorted((d, vec.inf if d in poisoned else c) for d, c in vec.costs.items())
            )
        return self._entries


class RouteEntry:
    __slots__ = ("next_hop", "cost")

    def __init__(self, next_hop: int | None, cost: int):
        self.next_hop = next_hop
        self.cost = cost


class RoutingTable:
    """One node's routes and what its neighbours last told it.

    ``entries`` and ``heard`` change only through this module's functions:
    ``changed``, ``risen`` and ``via`` follow those changes, and the shared
    vectors and the delta relaxations rely on them. ``hops`` caches
    next_hops's answers until either changes.
    """

    __slots__ = ("owner", "inf", "entries", "heard", "discovery_seen", "risen", "adverts",
                 "via", "changed", "vector", "hops", "hops_links")

    def __init__(self, owner: int, inf: int = INF):
        self.owner = owner
        self.inf = inf
        self.entries: dict[int, RouteEntry] = {}
        # Per neighbour: its last advertisement as received (vectors are never
        # mutated, poisoned sets are frozen) and ``risen`` after relaxing it.
        self.heard: dict[int, tuple[ControlMessage, ChangeRecord]] = {}
        # (origin, target) of every discovery flood this node has joined.
        self.discovery_seen: set[tuple[int, int]] = set()
        # Head of the rise chain: the last rise's record.
        self.risen: ChangeRecord = _NO_RISES
        # The current vector's advertisement per receiver; emptied when a vector is built.
        self.adverts: dict[int, ControlMessage] = {}
        # Next hop -> the destinations routed through it (the owner's entry aside).
        self.via: dict[int, set[int]] = {}
        # Destinations changed since ``vector`` was built; ``vector`` is current while empty.
        self.changed: set[int] = set()
        # The last vector built; None before the first advertisement.
        self.vector: Vector | None = None
        # Destination -> its equal-cost next hops among ``hops_links``, the links
        # tuple they were picked from; emptied whenever ``entries`` or ``heard``
        # change.
        self.hops: dict[int, list[int]] = {}
        self.hops_links: tuple[int, ...] | None = None

    def cost_to(self, dest: int) -> int:
        e = self.entries.get(dest)
        return e.cost if e is not None else self.inf


def init_routing(n: int, neighbors: Iterable[int], inf: int = INF) -> RoutingTable:
    """Fresh table for a node that just started: itself plus each neighbour at cost 1."""
    table = RoutingTable(owner=n, inf=inf)
    entries, via = table.entries, table.via
    entries[n] = RouteEntry(n, 0)
    for m in sorted(neighbors):
        if m != n:
            entries[m] = RouteEntry(m, 1)
            via[m] = {m}
    return table


def _build_vector(table: RoutingTable) -> Vector:
    """The table's current costs as a new vector, its record chained to the last one's."""
    prev, entries = table.vector, table.entries
    if prev is None:
        costs = {d: e.cost for d, e in entries.items()}
        parent = None
    else:
        costs = prev.costs.copy()
        for d in table.changed:
            e = entries.get(d)
            if e is None:
                costs.pop(d, None)
            else:
                costs[d] = e.cost
        parent = prev.record
    vec = table.vector = Vector(table.inf, costs, _push(parent, table.changed))
    table.changed.clear()
    table.adverts = {}
    return vec


def make_advertisement(table: RoutingTable, to_neighbor: int) -> ControlMessage:
    """Full-table advertisement for one neighbour, with poisoned reverse.

    Entries whose next hop is the receiving neighbour are advertised as
    unreachable so the neighbour never routes back through the sender.
    One cost vector is built per table change and shared by every
    receiver; a receiver's message adds the destinations routed via it. While
    the table is unchanged the same message is returned.
    """
    vec = table.vector
    if vec is None or table.changed:
        vec = _build_vector(table)
    msg = table.adverts.get(to_neighbor)
    if msg is None:
        msg = table.adverts[to_neighbor] = ControlMessage(_ADVERTISEMENT, table.owner)
        msg.vector = vec
        msg.poisoned = frozenset(table.via.get(to_neighbor, ()))
    return msg


def process_advertisement(table: RoutingTable, from_: int, adv: ControlMessage) -> bool:
    """Relax the table against a neighbour's advertised vector.

    A candidate cost of advertised+1 (capped at INF) is adopted when it beats
    the current entry, or whenever the entry already routes through the
    advertiser: a route through a neighbour must track that neighbour's own
    view, including cost increases. A destination missing from X's vector is
    relaxed as if X advertised it at INF. The advertisement is kept as
    ``table.heard[from_]`` for next_hops. Returns True when any entry's
    (next hop, cost) changed, which obliges the caller to queue triggered
    advertisements.

    A repeat vector from X costs only what changed. After X's vector ``v``
    is relaxed, (a) every cost(d) <= min(v[d]+1, INF), (b) every entry whose
    next hop is X equals that candidate, and (c) no entry via X names a
    destination outside ``v``. Other vectors and withdraws can only lower
    costs, move entries away from X, or raise or delete entries, and each
    rise pushes a record naming what it raised onto ``table.risen``. So when
    X speaks again, (b) and (c) still hold, and (a) holds for every
    destination not raised since: an unchanged (d, v[d]) pair for such a
    destination can change nothing, so re-offering one is harmless, and
    relaxing any superset of the changed pairs and the raised destinations is
    exact. ``heard[X]`` keeps the advertisement of ``v`` and the rise record
    that relaxation left. While both chains still reach back to them, they
    name such a superset: the destinations in the vector records newer than
    ``v``'s, whose cost or next hop moved in between; the difference of the
    two poisoned sets; and the destinations in the rise records since. The
    same two heads with the same poisoned set change nothing. Anything else
    (first contact, or a chain cut before it reaches back) takes the full
    pass over the whole vector and the destinations routed via X. Both
    passes relax their destinations in one loop.
    """
    if adv.kind is not _ADVERTISEMENT:
        raise ValueError(f"not an advertisement: {adv.kind}")
    owner, inf, entries, via = table.owner, table.inf, table.entries, table.via
    costs, record, poisoned = adv.vector.costs, adv.vector.record, adv.poisoned
    mine = via.get(from_)
    if mine is None:
        mine = via[from_] = set()
    last = table.heard.get(from_)
    offered = None
    if last is not None:
        seen, risen_then = last
        if (risen_then is table.risen and seen.vector.record is record
                and poisoned == seen.poisoned):
            return False
        dests = set(poisoned)
        dests ^= seen.poisoned
        if _since(table.risen, risen_then, dests) and _since(record, seen.vector.record, dests):
            offered = dests
    table.hops.clear()
    if offered is None:
        # Only an entry routed via the advertiser can vanish with its vector.
        offered = costs.keys() | mine
    changed_dests = table.changed
    changed = False
    risen = []
    for dest in offered:
        if dest == owner:
            continue  # the self-entry is permanent
        cost = inf if dest in poisoned else costs.get(dest, inf)
        candidate = cost + 1 if cost < inf else inf
        entry = entries.get(dest)
        if entry is None:
            if candidate < inf:
                entries[dest] = RouteEntry(from_, candidate)
                mine.add(dest)
                changed_dests.add(dest)
                changed = True
        elif candidate < entry.cost:
            if entry.next_hop != from_:
                if entry.next_hop is not None:
                    via[entry.next_hop].discard(dest)
                entry.next_hop = from_
                mine.add(dest)
            entry.cost = candidate
            changed_dests.add(dest)
            changed = True
        elif entry.next_hop == from_ and candidate != entry.cost:
            entry.cost = candidate  # a rise: lower candidates took the branch above
            if candidate >= inf:
                entry.next_hop = None
                mine.discard(dest)
            risen.append(dest)
    if risen:
        _note_rise(table, risen)
    table.heard[from_] = (adv, table.risen)
    return changed or bool(risen)


def _note_rise(table: RoutingTable, risen: list[int]) -> None:
    """Record one rise: the destinations it raised or deleted."""
    table.risen = _push(table.risen, risen)
    table.changed.update(risen)


def handle_withdraw(table: RoutingTable, leaving: int) -> bool:
    """Remove a departed node, its vector, and poison every route through it.

    Returns True when the table changed; the caller then queues triggered
    advertisements. The withdraw itself is never re-flooded: the poisoned
    entries propagate the news.
    """
    table.heard.pop(leaving, None)
    table.hops.clear()
    entries = table.entries
    risen = []
    entry = entries.get(leaving)
    if entry is not None and leaving != table.owner:
        del entries[leaving]
        if entry.next_hop is not None:
            table.via[entry.next_hop].discard(leaving)
        risen.append(leaving)
    for dest in table.via.pop(leaving, ()):
        entry = entries[dest]
        entry.cost = table.inf
        entry.next_hop = None
        risen.append(dest)
    if not risen:
        return False
    _note_rise(table, risen)
    return True


def next_hops(table: RoutingTable, dest: int, links: tuple[int, ...]) -> list[int]:
    """Linked neighbours whose last advertised cost + 1 is the table's cost to ``dest``.

    Falls back to the entry's own next hop while it is still linked. The
    answer is cached until the table changes or another links tuple is
    asked about; callers must not mutate it.
    """
    if table.hops_links is links:
        hops = table.hops.get(dest)
        if hops is not None:
            return hops
    else:
        table.hops.clear()
        table.hops_links = links
    entry = table.entries.get(dest)
    inf = table.inf
    hops = table.hops[dest] = []
    if entry is None or entry.cost >= inf:
        return hops
    for m in links:
        last = table.heard.get(m)
        if last is not None:
            adv = last[0]
            cost = inf if dest in adv.poisoned else adv.vector.costs.get(dest, inf)
            if cost + 1 == entry.cost:
                hops.append(m)
    if not hops and entry.next_hop in links:
        hops.append(entry.next_hop)
    return hops


def select_next_hop(candidates: Iterable[tuple[int, int]]) -> int | None:
    """Pick among equal-cost next hops, given as (frames queued to it, neighbour)
    pairs: the fewest queued frames, then the lowest id."""
    best = min(candidates, default=None)
    return best[1] if best is not None else None


def trigger_discovery(table: RoutingTable, target: int) -> ControlMessage:
    """The request that starts an on-demand discovery flood for ``target``.

    The caller sends it to every linked neighbour. Each receiver answers with
    a full advertisement to whoever it heard the request from and re-forwards
    the request once (see forward_discovery), so discovery reuses the
    distance-vector machinery instead of installing source routes.
    """
    table.discovery_seen.add((table.owner, target))
    return ControlMessage(
        MessageKind.DISCOVERY_REQUEST, origin=table.owner, target=target, ttl=table.inf
    )


def forward_discovery(table: RoutingTable, msg: ControlMessage) -> ControlMessage | None:
    """The request to re-forward to every other linked neighbour, or None.

    A node joins each (origin, target) flood once and stops it when the TTL
    runs out or the request has reached its target.
    """
    key = (msg.origin, msg.target)
    if key in table.discovery_seen or msg.ttl <= 1 or table.owner == msg.target:
        return None
    table.discovery_seen.add(key)
    return ControlMessage(msg.kind, msg.origin, target=msg.target, ttl=msg.ttl - 1)
