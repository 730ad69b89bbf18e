"""Modified distance-vector routing for churning short-range networks.

Each node keeps a table of (destination, next hop, hop cost) entries seeded
from its immediate neighbours, exchanges its full vector with neighbours on
a regular basis, and relaxes costs Bellman-Ford style. Split horizon with
poisoned reverse plus a hard cost cap keep count-to-infinity bounded, a
withdraw message lets a node leave politely, and an on-demand discovery
flood solicits ordinary advertisements when a sender lacks a route.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

INF = 16  # cost cap; entries at INF are unreachable


class MessageKind(Enum):
    ADVERTISEMENT = "advertisement"
    WITHDRAW = "withdraw"
    DISCOVERY_REQUEST = "discovery_request"


@dataclass(frozen=True)
class ControlMessage:
    kind: MessageKind
    origin: int
    # Advertisement payload: (destination, cost) pairs sorted by destination.
    entries: tuple[tuple[int, int], ...] = ()
    # Discovery payload.
    target: int | None = None
    ttl: int = 0


@dataclass
class RouteEntry:
    next_hop: int | None
    cost: int


@dataclass
class RoutingTable:
    """One node's routes and what its neighbours last told it.

    ``entries`` and ``heard`` change only through this module's functions:
    ``version``, ``raised`` and ``relaxed_at`` count those changes, and the
    cached advertisements and repeat relaxations rely on the counts.
    """

    owner: int
    inf: int = INF
    entries: dict[int, RouteEntry] = field(default_factory=dict)
    # Each neighbour's last advertised vector, costs capped at ``inf``.
    heard: dict[int, dict[int, int]] = field(default_factory=dict)
    # (origin, target) of every discovery flood this node has joined.
    discovery_seen: set[tuple[int, int]] = field(default_factory=set)
    # Bumped on every change to ``entries``; keys ``adverts``.
    version: int = 0
    # Bumped whenever an entry's cost rises or an entry is deleted.
    raised: int = 0
    # ``raised`` as it stood when each neighbour's vector was last relaxed.
    relaxed_at: dict[int, int] = field(default_factory=dict)
    # Per receiver, the last advertisement built and the version it shows.
    adverts: dict[int, tuple[int, ControlMessage]] = field(default_factory=dict)

    def cost_to(self, dest: int) -> int:
        e = self.entries.get(dest)
        return e.cost if e is not None else self.inf


def init_routing(n: int, neighbors: Iterable[int], inf: int = INF) -> RoutingTable:
    """Fresh table for a node that just started: itself plus each neighbour at cost 1."""
    table = RoutingTable(owner=n, inf=inf)
    table.entries[n] = RouteEntry(n, 0)
    for m in sorted(neighbors):
        if m == n:
            continue
        table.entries[m] = RouteEntry(m, 1)
    return table


def make_advertisement(table: RoutingTable, to_neighbor: int) -> ControlMessage:
    """Full-table advertisement for one neighbour, with poisoned reverse.

    Entries whose next hop is the receiving neighbour are advertised as
    unreachable so the neighbour never routes back through the sender.
    The message is built once per table version and receiver; while the
    table is unchanged the same frozen message is returned.
    """
    cached = table.adverts.get(to_neighbor)
    if cached is not None and cached[0] == table.version:
        return cached[1]
    owner, inf = table.owner, table.inf
    msg = ControlMessage(
        MessageKind.ADVERTISEMENT,
        origin=owner,
        entries=tuple(
            (dest, inf if e.next_hop == to_neighbor and dest != owner else e.cost)
            for dest, e in sorted(table.entries.items())
        ),
    )
    table.adverts[to_neighbor] = (table.version, msg)
    return msg


def process_advertisement(table: RoutingTable, from_: int, adv: ControlMessage) -> bool:
    """Relax the table against a neighbour's advertised vector.

    A candidate cost of advertised+1 (capped at INF) is adopted when it beats
    the current entry, or whenever the entry already routes through the
    advertiser: a route through a neighbour must track that neighbour's own
    view, including cost increases and silently dropped destinations.
    The capped vector is kept as ``table.heard[from_]`` for next_hops.
    Returns True when any entry's (next hop, cost) changed, which obliges the
    caller to queue triggered advertisements.

    A repeat vector from X costs only what changed in it. After X's vector
    ``v`` is relaxed, every cost(d) <= min(v[d]+1, INF), every entry whose
    next hop is X equals that candidate, and no entry via X names a
    destination outside ``v``. Until some cost rises or an entry is deleted
    (``table.raised`` moves), other vectors can only lower costs or move
    entries away from X, so all three still hold when X speaks again: an
    unchanged (d, v[d]) pair can change nothing, and only the changed pairs
    and the vanished destinations need relaxing. Once ``raised`` has moved,
    the whole vector is relaxed again.
    """
    if adv.kind is not MessageKind.ADVERTISEMENT:
        raise ValueError(f"not an advertisement: {adv.kind}")
    owner, inf, entries = table.owner, table.inf, table.entries
    advertised = {d: c if c < inf else inf for d, c in adv.entries}
    prev = table.heard.get(from_)
    table.heard[from_] = advertised
    if prev is not None and table.relaxed_at.get(from_) == table.raised:
        if advertised == prev:
            return False
        offers = sorted(advertised.items() - prev.items())
        vanished = prev.keys() - advertised.keys()
    else:
        offers = advertised.items()
        vanished = entries.keys() - advertised.keys()
    changed = rose = False
    for dest, cost in offers:
        if dest == owner:
            continue  # the self-entry is permanent
        candidate = cost + 1 if cost < inf else inf
        entry = entries.get(dest)
        if entry is None:
            if candidate < inf:
                entries[dest] = RouteEntry(from_, candidate)
                changed = True
        elif candidate < entry.cost:
            entry.next_hop = from_
            entry.cost = candidate
            changed = True
        elif entry.next_hop == from_ and candidate != entry.cost:
            entry.cost = candidate  # a rise: lower candidates took the branch above
            if candidate >= inf:
                entry.next_hop = None
            rose = True
    # Destinations we route via the advertiser but which it no longer knows
    # are gone from its vector entirely; poison them.
    for dest in vanished:
        entry = entries.get(dest)
        if entry is not None and entry.next_hop == from_ and dest != owner and entry.cost < inf:
            entry.cost = inf
            entry.next_hop = None
            rose = True
    if rose:
        table.raised += 1
    if changed or rose:
        table.version += 1
    table.relaxed_at[from_] = table.raised
    return changed or rose


def handle_withdraw(table: RoutingTable, leaving: int) -> bool:
    """Remove a departed node, its vector, and poison every route through it.

    Returns True when the table changed; the caller then queues triggered
    advertisements. The withdraw itself is never re-flooded: the poisoned
    entries propagate the news.
    """
    table.heard.pop(leaving, None)
    table.relaxed_at.pop(leaving, None)
    changed = False
    if leaving in table.entries and leaving != table.owner:
        del table.entries[leaving]
        changed = True
    for dest, entry in table.entries.items():
        if entry.next_hop == leaving and dest != table.owner:
            entry.cost = table.inf
            entry.next_hop = None
            changed = True
    if changed:
        table.raised += 1
        table.version += 1
    return changed


def next_hops(table: RoutingTable, dest: int, links: tuple[int, ...]) -> list[int]:
    """Linked neighbours whose advertised cost + 1 is the table's cost to ``dest``.

    Falls back to the entry's own next hop while it is still linked.
    """
    entry = table.entries.get(dest)
    if entry is None or entry.cost >= table.inf:
        return []
    heard = table.heard
    hops = [m for m in links if m in heard and heard[m].get(dest, table.inf) + 1 == entry.cost]
    if not hops and entry.next_hop in links:
        hops = [entry.next_hop]
    return hops


def select_next_hop(candidates: Iterable[tuple[int, int]]) -> int | None:
    """Pick among equal-cost next hops: least queue depth, then lowest id."""
    best = None
    for neighbor, depth in candidates:
        key = (depth, neighbor)
        if best is None or key < best:
            best = key
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
    return replace(msg, ttl=msg.ttl - 1)
