"""Piconet formation over the in-range graph and the usable-link rule.

A piconet is one master plus at most seven active slaves; extra members are
parked. Nodes holding roles in two or more piconets are bridges and stitch
the piconets into a scatternet. Formation uses a greedy descending-degree
heuristic and is fully deterministic for a given graph.
"""
from __future__ import annotations

from collections import Counter
from enum import Enum

from .topology import Node, in_range

MAX_ACTIVE_SLAVES = 7


class LinkMode(Enum):
    GEOMETRIC = "geometric"
    SCATTERNET = "scatternet"


class Piconet:
    def __init__(self, id: int, master: int):
        self.id = id
        self.master = master
        self.active_slaves: list[int] = []
        self.parked_slaves: list[int] = []


class Scatternet:
    def __init__(self) -> None:
        self.piconets: list[Piconet] = []
        # (a, b) -> (piconet id, transmit parity for ``a``), built at formation
        self.links: dict[tuple[int, int], tuple[int, int]] = {}

    @property
    def bridge_nodes(self) -> set[int]:
        """Nodes holding a role in two or more piconets."""
        roles = Counter()
        for p in self.piconets:
            roles[p.master] += 1
            roles.update(p.active_slaves)
            roles.update(p.parked_slaves)
        return {n for n, held in roles.items() if held >= 2}

    def link_piconet(self, a: int, b: int) -> tuple[int, int] | None:
        """Shared piconet carrying a usable a<->b link, if any.

        Returns (piconet id, transmit parity for ``a``) where parity 0 means
        ``a`` is the master (even slots) and 1 means ``a`` is the active
        slave (odd slots). Only master<->active-slave pairs form links; two
        slaves of one piconet never exchange directly.
        """
        return self.links.get((a, b))


def form_scatternet(adjacency: dict[int, set[int]]) -> Scatternet:
    """Assign master/slave/bridge roles over the given in-range graph.

    Nodes are visited in descending degree (ties by lower id). An unassigned
    node becomes a master and claims up to seven unassigned in-range
    neighbours as active slaves; further unassigned neighbours are parked.
    In-range nodes already serving another piconet gain an extra active-slave
    role (becoming bridges) while the new piconet has capacity. The result
    depends only on the graph. The link map is built last, in piconet id
    order; should a pair ever share two piconets, the lower id carries it.
    """
    order = sorted(adjacency, key=lambda n: (-len(adjacency[n]), n))
    net = Scatternet()
    assigned: set[int] = set()
    for n in order:
        if n in assigned:
            continue
        pico = Piconet(id=len(net.piconets), master=n)
        net.piconets.append(pico)
        assigned.add(n)
        bridging = []
        for m in sorted(adjacency[n]):
            if m in assigned:
                bridging.append(m)
            elif len(pico.active_slaves) < MAX_ACTIVE_SLAVES:
                pico.active_slaves.append(m)
            else:
                pico.parked_slaves.append(m)
        assigned.update(adjacency[n])
        pico.active_slaves += bridging[:MAX_ACTIVE_SLAVES - len(pico.active_slaves)]
    for pico in net.piconets:
        for m in pico.active_slaves:
            net.links.setdefault((pico.master, m), (pico.id, 0))
            net.links.setdefault((m, pico.master), (pico.id, 1))
    return net


def link_allowed(
    a: int,
    b: int,
    world: dict[int, Node],
    net: Scatternet | None,
    mode: LinkMode,
) -> bool:
    """Whether a<->b is a usable link under the chosen mode.

    Geometric mode is the plain radio-range rule. Scatternet mode further
    requires a master/active-slave relation inside a shared piconet, so the
    piconet structure only ever restricts the geometric graph.
    """
    if a == b:
        return False
    if not in_range(world[a], world[b]):
        return False
    if mode is LinkMode.GEOMETRIC:
        return True
    if net is None:
        return False
    return net.link_piconet(a, b) is not None


def scatternet_to_json(net: Scatternet) -> dict:
    return {
        "piconets": [
            {
                "id": p.id,
                "master": p.master,
                "active_slaves": sorted(p.active_slaves),
                "parked_slaves": sorted(p.parked_slaves),
            }
            for p in net.piconets
        ],
        "bridges": sorted(net.bridge_nodes),
    }
