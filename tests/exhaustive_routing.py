"""Exhaustive check of the routing protocol on every small labeled graph.

Drives ``bluehop.routing`` alone, in synchronous rounds: each round every
node builds one advertisement per neighbour from its current table, then all
are delivered. For every labeled graph on 2..N nodes the tables converge from
cold start; then each edge fails (``handle_withdraw`` at both ends, as expiry
does) and each node leaves (``handle_withdraw`` at its neighbours, as a
withdraw does). After every failure the tables must go quiet within ``inf``
rounds and equal the capped breadth-first costs, with next hops that are
linked neighbours one hop closer to the destination, so no route loops.

    PYTHONPATH=src python tests/exhaustive_routing.py 5

The tier-1 suite runs it on up to 4 nodes (tests/test_routing.py).
"""
from __future__ import annotations

import itertools
import sys

from bluehop.routing import INF, handle_withdraw, init_routing, make_advertisement, process_advertisement

from conftest import bfs_distances


def exchange(tables, adjacency, inf, what) -> None:
    """Synchronous rounds until one changes nothing; at most ``inf`` may change something."""
    for busy in range(inf + 1):
        batch = [
            (a, b, make_advertisement(tables[a], b))
            for a in sorted(adjacency)
            for b in sorted(adjacency[a])
        ]
        changed = False
        for a, b, adv in batch:
            changed |= process_advertisement(tables[b], a, adv)
        if not changed:
            return
    raise AssertionError(f"{what}: still changing after {inf} rounds")


def assert_settled(tables, adjacency, inf, what):
    for n, table in tables.items():
        dist = bfs_distances(adjacency, n)
        for d in adjacency:
            want = min(dist.get(d, inf), inf)
            assert table.cost_to(d) == want, f"{what}: node {n} dest {d}: {table.cost_to(d)} != {want}"
            entry = table.entries.get(d)
            if d == n or entry is None or entry.cost >= inf:
                continue
            hop = entry.next_hop
            assert hop in adjacency[n], f"{what}: node {n} dest {d} via unlinked {hop}"
            assert tables[hop].cost_to(d) == want - 1, f"{what}: node {n} dest {d} via {hop} loops"


def graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adjacency = {i: set() for i in range(n)}
        for k, (a, b) in enumerate(pairs):
            if mask >> k & 1:
                adjacency[a].add(b)
                adjacency[b].add(a)
        yield adjacency


def settle(adjacency, inf, what):
    tables = {n: init_routing(n, adjacency[n], inf) for n in adjacency}
    exchange(tables, adjacency, inf, what)
    assert_settled(tables, adjacency, inf, what)
    return tables


def check_all(max_nodes: int, inf: int = INF) -> int:
    """Check every graph on 2..max_nodes nodes; returns the failure cases checked."""
    cases = 0
    for n in range(2, max_nodes + 1):
        for adjacency in graphs(n):
            edges = sorted((a, b) for a in adjacency for b in adjacency[a] if a < b)
            name = f"graph {edges} on {n} nodes"
            settle(adjacency, inf, name)
            for kind, which in [("edge", e) for e in edges] + [("node", v) for v in range(n)]:
                what = f"{name}, {kind} {which} failed"
                tables = settle(adjacency, inf, name)
                if kind == "edge":
                    a, b = which
                    handle_withdraw(tables[a], b)
                    handle_withdraw(tables[b], a)
                    residual = {i: peers - {b if i == a else a} if i in which else set(peers)
                                for i, peers in adjacency.items()}
                else:
                    for m in sorted(adjacency[which]):
                        handle_withdraw(tables[m], which)
                    del tables[which]
                    residual = {i: peers - {which} for i, peers in adjacency.items() if i != which}
                exchange(tables, residual, inf, what)
                assert_settled(tables, residual, inf, what)
                cases += 1
    return cases


if __name__ == "__main__":
    max_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"{check_all(max_nodes)} failure cases re-converged on graphs of 2..{max_nodes} nodes")
