import math

import pytest
from hypothesis import given, strategies as st

from bluehop.scatternet import LinkMode, link_allowed
from bluehop.scenario import CLASS_DEFAULT_RANGE
from bluehop.topology import Node, NodeState, Position, apply_motion, in_range, position_at


def make_node(x, y, class_id=3, state=NodeState.ACTIVE, path=()):
    return Node(Position(x, y), CLASS_DEFAULT_RANGE[class_id], state, list(path))


def neighbor_set(n, world):
    """Peers of ``n`` under the geometric link rule the kernel's adjacency uses."""
    return {m for m in world if link_allowed(n, m, world, None, LinkMode.GEOMETRIC)}


class TestInRange:
    def test_class3_pair_within_ten_metres(self):
        a, b = make_node(0, 0), make_node(8, 0)
        assert in_range(a, b)

    def test_zero_distance(self):
        a, b = make_node(3, 3), make_node(3, 3)
        assert in_range(a, b)

    def test_bidirectional_rule_blocks_asymmetric_link(self):
        # A class-1 radio hears 50 m away, but the class-3 peer cannot reply.
        big = make_node(0, 0, class_id=1)
        small = make_node(50, 0, class_id=3)
        assert not in_range(big, small)
        assert not in_range(small, big)

    def test_requires_both_active(self):
        a, b = make_node(0, 0), make_node(5, 0, state=NodeState.PARKED)
        assert not in_range(a, b)
        b.state = NodeState.ACTIVE
        assert in_range(a, b)

    @given(
        st.tuples(
            st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)
        ),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3]),
    )
    def test_symmetric(self, coords, ca, cb):
        ax, ay, bx, by = coords
        a = make_node(ax, ay, class_id=ca)
        b = make_node(bx, by, class_id=cb)
        assert in_range(a, b) == in_range(b, a)


class TestNeighborSet:
    def test_single_node_has_no_peers(self):
        world = {0: make_node(0, 0)}
        assert neighbor_set(0, world) == set()

    def test_three_collinear_nodes(self):
        world = {
            0: make_node(0, 0),
            1: make_node(8, 0),
            2: make_node(16, 0),
        }
        assert neighbor_set(1, world) == {0, 2}
        assert neighbor_set(0, world) == {1}

    def test_off_node_is_invisible(self):
        world = {
            0: make_node(0, 0),
            1: make_node(8, 0, state=NodeState.OFF),
        }
        assert neighbor_set(0, world) == set()
        assert neighbor_set(1, world) == set()

    def test_never_contains_self(self):
        world = {i: make_node(i * 2.0, 0) for i in range(6)}
        for n in world:
            assert n not in neighbor_set(n, world)

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            neighbor_set(9, {0: make_node(0, 0)})


class TestMotion:
    def test_no_waypoints_never_moves(self):
        node = make_node(4, 5)
        for t in (0, 1, 10**9):
            assert position_at(node, t) == Position(4, 5)

    def test_midpoint_of_linear_segment(self):
        # 0 s at x=0, 10 s at x=20, query at 5 s.
        node = make_node(0, 0, path=[(0, Position(0, 0)), (20_000_000, Position(20, 0))])
        assert position_at(node, 10_000_000) == Position(10, 0)

    def test_clamps_after_last_waypoint(self):
        node = make_node(0, 0, path=[(0, Position(0, 0)), (2_000_000, Position(6, 2))])
        assert position_at(node, 5_000_000) == Position(6, 2)

    def test_matches_scalar_interpolation_oracle(self):
        node = make_node(
            0, 0, path=[(0, Position(0, 0)), (1_000_000, Position(10, -4)), (3_000_000, Position(-2, 8))]
        )
        path = [(0, (0.0, 0.0)), (1_000_000, (10.0, -4.0)), (3_000_000, (-2.0, 8.0))]

        def oracle(t):
            if t >= path[-1][0]:
                return path[-1][1]
            for (t0, p0), (t1, p1) in zip(path, path[1:]):
                if t0 <= t <= t1:
                    f = (t - t0) / (t1 - t0)
                    return (p0[0] + f * (p1[0] - p0[0]), p0[1] + f * (p1[1] - p0[1]))

        for t in range(0, 4_000_000, 250_000):
            got = position_at(node, t)
            want = oracle(t)
            assert math.isclose(got.x, want[0]) and math.isclose(got.y, want[1])

    def test_apply_motion_is_deterministic(self):
        def build():
            return {
                0: make_node(0, 0, path=[(0, Position(0, 0)), (1_000_000, Position(9, 9))]),
                1: make_node(5, 5),
            }

        w1, w2 = build(), build()
        apply_motion(w1, 700_000)
        apply_motion(w2, 700_000)
        assert w1[0].position == w2[0].position
        assert w1[1].position == Position(5, 5)


class TestState:
    def test_set_state(self):
        world = {0: make_node(0, 0), 1: make_node(5, 0)}
        world[1].state = NodeState.OFF
        assert neighbor_set(0, world) == set()
        world[1].state = NodeState.ACTIVE
        assert neighbor_set(0, world) == {1}
