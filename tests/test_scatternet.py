import random

import pytest

from bluehop.scatternet import (
    LinkMode,
    form_scatternet,
    link_allowed,
    scatternet_to_json,
)
from bluehop.topology import Node, NodeState, Position

from conftest import geometric_adjacency, random_positions


def make_world(positions, state=NodeState.ACTIVE):
    return {
        i: Node(Position(x, y), 10.0, state)
        for i, (x, y) in positions.items()
    }


def roles(net):
    """node -> {piconet id -> role}, read off the piconet lists."""
    held = {}
    for pico in net.piconets:
        held.setdefault(pico.master, {})[pico.id] = "master"
        for m in pico.active_slaves:
            held.setdefault(m, {})[pico.id] = "active"
        for m in pico.parked_slaves:
            held.setdefault(m, {})[pico.id] = "parked"
    return held


def check_invariants(net, adjacency):
    masters_held = {}
    for pico in net.piconets:
        assert len(pico.active_slaves) <= 7
        assert pico.master not in masters_held, "a node may master only one piconet"
        masters_held[pico.master] = pico.id
        for member in pico.active_slaves + pico.parked_slaves:
            assert member in adjacency[pico.master], "members must hear their master"
    held = roles(net)
    for n in adjacency:
        assert held.get(n), f"node {n} holds no role"
    assert net.bridge_nodes == {n for n, r in held.items() if len(r) >= 2}


class TestFormation:
    def test_isolated_node_masters_itself(self):
        net = form_scatternet({0: set()})
        assert len(net.piconets) == 1
        assert net.piconets[0].master == 0
        assert net.piconets[0].active_slaves == []

    def test_star_caps_active_slaves_at_seven(self):
        # One hub, nine leaves only reachable through it.
        adjacency = {0: set(range(1, 10))}
        for leaf in range(1, 10):
            adjacency[leaf] = {0}
        net = form_scatternet(adjacency)
        pico = net.piconets[0]
        assert pico.master == 0
        assert len(pico.active_slaves) == 7
        assert len(pico.parked_slaves) == 2

    def test_two_cliques_sharing_a_node_satisfy_all_invariants(self):
        # The shared node has the highest degree, so the greedy order makes
        # it master of one piconet that absorbs both cliques.
        left = {0, 1, 2, 3}
        right = {3, 4, 5, 6}
        adjacency = {n: set() for n in range(7)}
        for group in (left, right):
            for a in group:
                for b in group:
                    if a != b:
                        adjacency[a].add(b)
        net = form_scatternet(adjacency)
        check_invariants(net, adjacency)
        assert net.piconets[0].master == 3

    def test_node_between_two_hubs_becomes_bridge(self):
        # Two stars out of mutual range joined by one middle node: the
        # second master claims the already-assigned middle node as an extra
        # active slave, which makes it a bridge.
        adjacency = {
            0: {1, 2, 3},
            1: {0},
            2: {0},
            3: {0, 6},
            6: {3, 4, 5},
            4: {6},
            5: {6},
        }
        net = form_scatternet(adjacency)
        check_invariants(net, adjacency)
        assert 3 in net.bridge_nodes
        assert roles(net)[3] == {0: "active", 1: "active"}

    def test_deterministic(self):
        positions = random_positions(99, n_range=(10, 20))
        adjacency = geometric_adjacency(positions)
        a = scatternet_to_json(form_scatternet(adjacency))
        b = scatternet_to_json(form_scatternet(adjacency))
        assert a == b

    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_on_random_graphs(self, seed):
        positions = random_positions(seed, n_range=(5, 25))
        adjacency = geometric_adjacency(positions)
        net = form_scatternet(adjacency)
        check_invariants(net, adjacency)


class TestLinkAllowed:
    def setup_method(self):
        # Chain of three: 0-1-2, all class 3 at 8 m spacing.
        self.positions = {0: (0.0, 0.0), 1: (8.0, 0.0), 2: (16.0, 0.0)}
        self.world = make_world(self.positions)
        self.net = form_scatternet(geometric_adjacency(self.positions))

    def test_geometric_mode_equals_in_range(self):
        assert link_allowed(0, 1, self.world, None, LinkMode.GEOMETRIC)
        assert not link_allowed(0, 2, self.world, None, LinkMode.GEOMETRIC)

    def test_two_slaves_of_one_piconet_never_link(self):
        # Star: center 0 with slaves in mutual range of each other.
        positions = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (0.0, 4.0)}
        world = make_world(positions)
        net = form_scatternet(geometric_adjacency(positions))
        pico = net.piconets[0]
        s1, s2 = pico.active_slaves
        assert link_allowed(pico.master, s1, world, net, LinkMode.SCATTERNET)
        assert not link_allowed(s1, s2, world, net, LinkMode.SCATTERNET)

    def test_parked_slave_has_no_link(self):
        adjacency = {0: set(range(1, 10))}
        for leaf in range(1, 10):
            adjacency[leaf] = {0}
        positions = {0: (0.0, 0.0)}
        rng = random.Random(0)
        for leaf in range(1, 10):
            positions[leaf] = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        world = make_world(positions)
        net = form_scatternet(adjacency)
        parked = net.piconets[0].parked_slaves[0]
        assert not link_allowed(0, parked, world, net, LinkMode.SCATTERNET)

    def test_inactive_node_has_no_link_in_any_mode(self):
        self.world[1].state = NodeState.PARKED
        assert not link_allowed(0, 1, self.world, self.net, LinkMode.GEOMETRIC)
        assert not link_allowed(0, 1, self.world, self.net, LinkMode.SCATTERNET)

    @pytest.mark.parametrize("seed", range(10))
    def test_scatternet_links_subset_of_geometric(self, seed):
        positions = random_positions(seed, n_range=(5, 20))
        world = make_world(positions)
        net = form_scatternet(geometric_adjacency(positions))
        for a in positions:
            for b in positions:
                if a != b and link_allowed(a, b, world, net, LinkMode.SCATTERNET):
                    assert link_allowed(a, b, world, None, LinkMode.GEOMETRIC)


def role_intersection(net, a, b):
    """The link rule read off the piconet lists: the lowest piconet where one
    end is master and the other an active slave, with ``a``'s parity."""
    for pico in sorted(net.piconets, key=lambda p: p.id):
        if pico.master == a and b in pico.active_slaves:
            return pico.id, 0
        if pico.master == b and a in pico.active_slaves:
            return pico.id, 1
    return None


class TestLinkMap:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_role_intersection(self, seed):
        # Spans from sparse chains to crowded piconets with parked slaves.
        positions = random_positions(seed, span=[15.0, 25.0, 40.0][seed % 3], n_range=(2, 30))
        net = form_scatternet(geometric_adjacency(positions))
        for a in positions:
            for b in positions:
                assert net.link_piconet(a, b) == role_intersection(net, a, b)


class TestDump:
    def test_json_shape(self):
        positions = {0: (0.0, 0.0), 1: (5.0, 0.0)}
        net = form_scatternet(geometric_adjacency(positions))
        dump = scatternet_to_json(net)
        assert dump["piconets"][0]["master"] == 0
        assert dump["piconets"][0]["active_slaves"] == [1]
        assert dump["bridges"] == []
