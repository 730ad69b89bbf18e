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
    owner: int
    inf: int = INF
    entries: dict[int, RouteEntry] = field(default_factory=dict)
    # Each neighbour's last advertised vector, costs capped at ``inf``.
    heard: dict[int, dict[int, int]] = field(default_factory=dict)
    # (origin, target) of every discovery flood this node has joined.
    discovery_seen: set[tuple[int, int]] = field(default_factory=set)

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
    """
    entries = []
    for dest in sorted(table.entries):
        e = table.entries[dest]
        cost = table.inf if (e.next_hop == to_neighbor and dest != table.owner) else e.cost
        entries.append((dest, min(cost, table.inf)))
    return ControlMessage(MessageKind.ADVERTISEMENT, origin=table.owner, entries=tuple(entries))


def process_advertisement(table: RoutingTable, from_: int, adv: ControlMessage) -> bool:
    """Relax the table against a neighbour's advertised vector.

    A candidate cost of advertised+1 (capped at INF) is adopted when it beats
    the current entry, or whenever the entry already routes through the
    advertiser: a route through a neighbour must track that neighbour's own
    view, including cost increases and silently dropped destinations.
    The capped vector is kept as ``table.heard[from_]`` for next_hops.
    Returns True when any entry's (next hop, cost) changed, which obliges the
    caller to queue triggered advertisements.
    """
    if adv.kind is not MessageKind.ADVERTISEMENT:
        raise ValueError(f"not an advertisement: {adv.kind}")
    inf = table.inf
    advertised = {d: min(c, inf) for d, c in adv.entries}
    table.heard[from_] = advertised
    changed = False
    for dest, cost in advertised.items():
        if dest == table.owner:
            continue  # the self-entry is permanent
        candidate = min(cost + 1, inf)
        entry = table.entries.get(dest)
        if entry is None:
            if candidate < inf:
                table.entries[dest] = RouteEntry(from_, candidate)
                changed = True
        elif candidate < entry.cost:
            entry.next_hop = from_
            entry.cost = candidate
            changed = True
        elif entry.next_hop == from_ and candidate != entry.cost:
            entry.cost = candidate
            if candidate >= inf:
                entry.next_hop = None
            changed = True
    # Destinations we route via the advertiser but which it no longer knows
    # are gone from its vector entirely; poison them.
    for dest, entry in table.entries.items():
        if (
            dest != table.owner
            and entry.next_hop == from_
            and dest not in advertised
            and entry.cost < inf
        ):
            entry.cost = inf
            entry.next_hop = None
            changed = True
    return changed


def handle_withdraw(table: RoutingTable, leaving: int) -> bool:
    """Remove a departed node, its vector, and poison every route through it.

    Returns True when the table changed; the caller then queues triggered
    advertisements. The withdraw itself is never re-flooded: the poisoned
    entries propagate the news.
    """
    table.heard.pop(leaving, None)
    changed = False
    if leaving in table.entries and leaving != table.owner:
        del table.entries[leaving]
        changed = True
    for dest, entry in table.entries.items():
        if entry.next_hop == leaving and dest != table.owner:
            entry.cost = table.inf
            entry.next_hop = None
            changed = True
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
