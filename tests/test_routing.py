import gc

import pytest
from hypothesis import given, settings, strategies as st

from bluehop.routing import (
    CHANGE_DEPTH,
    INF,
    ChangeRecord,
    ControlMessage,
    MessageKind,
    RouteEntry,
    RoutingTable,
    Vector,
    forward_discovery,
    handle_withdraw,
    init_routing,
    make_advertisement,
    next_hops,
    process_advertisement,
    select_next_hop,
    trigger_discovery,
)

from conftest import advert, bfs_distances, geometric_adjacency, random_positions
from exhaustive_routing import check_all


def adv_of(table, to):
    return dict(make_advertisement(table, to).entries)


def converge(adjacency, tables=None, max_rounds=200):
    """Synchronous full-exchange rounds until no table changes.

    Each round every node builds one advertisement per neighbour from its
    current table; all are then delivered. Returns (tables, rounds used).
    """
    if tables is None:
        tables = {n: init_routing(n, adjacency[n]) for n in sorted(adjacency)}
    for rounds in range(1, max_rounds + 1):
        batch = [
            (a, b, make_advertisement(tables[a], b))
            for a in sorted(adjacency)
            for b in sorted(adjacency[a])
        ]
        changed = False
        for a, b, adv in batch:
            changed |= process_advertisement(tables[b], a, adv)
        if not changed:
            return tables, rounds
    raise AssertionError("advertisement exchange did not quiesce")


def assert_matches_bfs(tables, adjacency):
    for n, table in tables.items():
        dist = bfs_distances(adjacency, n)
        for d in adjacency:
            want = min(dist.get(d, INF), INF)
            got = min(table.cost_to(d), INF)
            assert got == want, f"node {n} dest {d}: {got} != bfs {want}"


class TestInitRouting:
    def test_isolated_node(self):
        table = init_routing(7, set())
        assert set(table.entries) == {7}
        assert table.entries[7].cost == 0

    def test_neighbors_at_cost_one(self):
        table = init_routing(0, {1, 2})
        assert table.entries[1].cost == 1 and table.entries[1].next_hop == 1
        assert table.entries[2].cost == 1 and table.entries[2].next_hop == 2

    def test_initial_advertisement_content(self):
        # The fresh table serialized toward neighbour 1, with the neighbour's
        # own entry poisoned by the reverse rule.
        table = init_routing(0, {1, 2})
        assert adv_of(table, 1) == {0: 0, 1: INF, 2: 1}


class TestMakeAdvertisement:
    def test_minimal_table(self):
        table = init_routing(3, set())
        msg = make_advertisement(table, 9)
        assert msg.kind is MessageKind.ADVERTISEMENT
        assert msg.entries == ((3, 0),)

    def test_poisons_routes_via_receiver(self):
        table = init_routing(0, {1})
        news = advert(1, ((1, 0), (2, 1)))
        process_advertisement(table, 1, news)  # dest 2 via 1
        assert adv_of(table, 1)[2] == INF

    def test_other_routes_untouched(self):
        table = init_routing(0, {1, 3})
        news = advert(3, ((2, 1), (3, 0)))
        process_advertisement(table, 3, news)  # dest 2 via 3
        assert adv_of(table, 1)[2] == 2

    def test_same_message_while_table_unchanged(self):
        table = init_routing(0, {1, 2})
        msg = make_advertisement(table, 1)
        assert make_advertisement(table, 1) is msg
        assert make_advertisement(table, 2) is not msg  # one per receiver
        quiet = advert(2, ((0, 1), (2, 0)))
        assert process_advertisement(table, 2, quiet) is False
        assert make_advertisement(table, 1) is msg

    def test_cache_invalidated_by_process_advertisement(self):
        table = init_routing(0, {1, 2})
        before = make_advertisement(table, 1)
        news = advert(2, ((2, 0), (5, 1)))
        assert process_advertisement(table, 2, news) is True
        after = make_advertisement(table, 1)
        assert after is not before
        assert dict(after.entries)[5] == 2

    def test_cache_invalidated_by_withdraw(self):
        table = init_routing(0, {1, 2})
        before = make_advertisement(table, 1)
        assert handle_withdraw(table, 2) is True
        after = make_advertisement(table, 1)
        assert after is not before
        assert dict(after.entries) == {0: 0, 1: INF}


class TestProcessAdvertisement:
    def test_line_learns_two_hop_route(self):
        # A(0) - B(1) - C(2): B's vector teaches A a cost-2 route to C.
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        tables, _ = converge(adjacency)
        assert tables[0].entries[2].cost == bfs_distances(adjacency, 0)[2] == 2
        assert tables[0].entries[2].next_hop == 1

    def test_idempotent_repeat_changes_nothing(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        tables, _ = converge(adjacency)
        again = make_advertisement(tables[1], 0)
        assert process_advertisement(tables[0], 1, again) is False

    def test_poisoned_route_is_adopted(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        tables, _ = converge(adjacency)
        poisoned = advert(1, ((1, 0), (2, INF)))
        process_advertisement(tables[0], 1, poisoned)
        residual = {0: {1}, 1: {0}}
        assert tables[0].cost_to(2) == INF
        assert tables[0].cost_to(1) == bfs_distances(residual, 0)[1]

    def test_route_via_advertiser_tracks_increase(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        tables, _ = converge(adjacency)
        worse = advert(1, ((1, 0), (2, 5)))
        assert process_advertisement(tables[0], 1, worse) is True
        assert tables[0].entries[2].cost == 6

    def test_missing_destination_via_advertiser_is_poisoned(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        tables, _ = converge(adjacency)
        silent = advert(1, ((1, 0),))
        assert process_advertisement(tables[0], 1, silent) is True
        assert tables[0].cost_to(2) == INF

    def test_unchanged_repeat_relaxes_after_a_rise(self):
        # 0 routes to 3 via 1 at cost 3; 2 offers the same cost and loses the
        # tie. When 1's cost rises, 2's unchanged repeat must win 3 back.
        table = init_routing(0, {1, 2})
        via_1 = lambda c: advert(1, ((1, 0), (3, c)))
        via_2 = advert(2, ((2, 0), (3, 2)))
        assert process_advertisement(table, 1, via_1(2)) is True
        assert process_advertisement(table, 2, via_2) is False
        assert process_advertisement(table, 1, via_1(5)) is True
        assert (table.entries[3].next_hop, table.cost_to(3)) == (1, 6)
        assert process_advertisement(table, 2, via_2) is True
        assert (table.entries[3].next_hop, table.cost_to(3)) == (2, 3)

    @pytest.mark.parametrize("other_rises", [0, 1, CHANGE_DEPTH - 1, CHANGE_DEPTH, 3 * CHANGE_DEPTH])
    def test_repeated_vector_relaxes_after_many_rises(self, other_rises):
        # 0 routes to 5 via 1 at cost 1; node 2's real vector offers cost 2
        # and loses. When 1's cost rises, 2's unchanged vector must win 5 back,
        # however many other rises came in between.
        table, two = init_routing(0, {1, 2}), init_routing(2, {0, 5})
        near = advert(1, ((1, 0), (5, 0)))
        far = advert(1, ((1, 0), (5, 9)))
        assert process_advertisement(table, 1, near) is True
        adv = make_advertisement(two, 0)
        assert process_advertisement(table, 2, adv) is False
        assert process_advertisement(table, 1, far) is True
        for k in range(2 * other_rises):
            flip = advert(7, ((7, 0), (8, k % 2)))
            assert process_advertisement(table, 7, flip) is True
        assert process_advertisement(table, 2, adv) is True
        assert (table.entries[5].next_hop, table.cost_to(5)) == (2, 2)

    def test_self_entry_is_permanent(self):
        table = init_routing(0, {1})
        hostile = advert(1, ((0, 9), (1, 0)))
        process_advertisement(table, 1, hostile)
        assert table.entries[0].cost == 0 and table.entries[0].next_hop == 0

    def test_rejects_non_advertisement(self):
        table = init_routing(0, {1})
        with pytest.raises(ValueError):
            process_advertisement(table, 1, ControlMessage(MessageKind.WITHDRAW, origin=1))


class TestHandleWithdraw:
    def test_line_poisons_route_through_withdrawn(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        tables, _ = converge(adjacency)
        assert handle_withdraw(tables[0], 1) is True
        assert 1 not in tables[0].entries
        assert tables[0].cost_to(2) == INF

    def test_unknown_node_changes_nothing(self):
        table = init_routing(0, {1})
        before = {d: (e.next_hop, e.cost) for d, e in table.entries.items()}
        assert handle_withdraw(table, 42) is False
        assert {d: (e.next_hop, e.cost) for d, e in table.entries.items()} == before

    @pytest.mark.parametrize("seed", range(12))
    def test_network_clean_within_diameter_rounds(self, seed):
        positions = random_positions(seed, n_range=(6, 20))
        adjacency = geometric_adjacency(positions)
        tables, _ = converge(adjacency)
        leaving = sorted(adjacency)[seed % len(adjacency)]
        residual = {
            n: {m for m in peers if m != leaving}
            for n, peers in adjacency.items()
            if n != leaving
        }
        # The farewell reaches the immediate neighbours only.
        for m in sorted(adjacency[leaving]):
            handle_withdraw(tables[m], leaving)
        del tables[leaving]
        # A next hop is always a direct neighbour, so nobody else can have
        # been routing via the withdrawn node; verify immediately and then
        # after every exchange round.
        diameter = max(
            (
                d
                for n in residual
                for d in bfs_distances(residual, n).values()
            ),
            default=0,
        )
        for _ in range(max(diameter, 1)):
            for n, table in tables.items():
                for d, e in table.entries.items():
                    assert not (e.next_hop == leaving and e.cost < INF)
            batch = [
                (a, b, make_advertisement(tables[a], b))
                for a in sorted(residual)
                for b in sorted(residual[a])
            ]
            for a, b, adv in batch:
                process_advertisement(tables[b], a, adv)
        converge(residual, tables)
        assert_matches_bfs(tables, residual)


class TestNextHop:
    def test_self_delivery(self):
        table = init_routing(4, {1})
        assert (table.entries[4].next_hop, table.cost_to(4)) == (4, 0)

    def test_direct_neighbor(self):
        table = init_routing(0, {5})
        assert (table.entries[5].next_hop, table.cost_to(5)) == (5, 1)

    def test_poisoned_entry_is_no_route(self):
        table = init_routing(0, {1})
        handle_withdraw(table, 1)
        assert table.cost_to(1) == INF
        assert table.cost_to(9) == INF


class TestSelectNextHop:
    def test_single_candidate(self):
        assert select_next_hop([(10, 3)]) == 3

    def test_prefers_shallow_queue(self):
        assert select_next_hop([(3, 1), (1, 3)]) == 3

    def test_ties_break_by_lower_id(self):
        assert select_next_hop([(2, 4), (2, 2)]) == 2

    def test_empty_is_no_route(self):
        assert select_next_hop([]) is None


class TestNextHops:
    @staticmethod
    def diamond():
        # 0 reaches 3 over 1 or 2; both relays advertise it at cost 1.
        adjacency = {0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}}
        tables, _ = converge(adjacency)
        return tables[0]

    def test_every_equal_cost_neighbor(self):
        assert next_hops(self.diamond(), 3, (1, 2)) == [1, 2]

    def test_unlinked_neighbor_is_skipped(self):
        assert next_hops(self.diamond(), 3, (2,)) == [2]

    def test_falls_back_to_linked_next_hop(self):
        table = self.diamond()
        table.heard.clear()
        via = table.entries[3].next_hop
        assert next_hops(table, 3, (1, 2)) == [via]
        assert next_hops(table, 3, tuple({1, 2} - {via})) == []

    def test_unreachable_destination(self):
        table = self.diamond()
        assert next_hops(table, 9, (1, 2)) == []
        handle_withdraw(table, 1)
        handle_withdraw(table, 2)
        assert table.cost_to(3) == INF
        assert next_hops(table, 3, (1, 2)) == []

    def test_poisoned_cost_names_no_next_hop(self):
        # 1 learns 5 via 0 at cost 2, then 0's own route via 2 rises to 3.
        # 1's vector still says 2, poisoned toward 0, so only 2 is a next hop.
        table, one = init_routing(0, {1, 2}), init_routing(1, {0})
        process_advertisement(table, 2, advert(2, ((2, 0), (5, 0))))
        process_advertisement(one, 0, make_advertisement(table, 1))
        process_advertisement(table, 2, advert(2, ((2, 0), (5, 2))))
        process_advertisement(table, 1, make_advertisement(one, 0))
        assert table.cost_to(5) == one.cost_to(5) + 1 == 3
        assert next_hops(table, 5, (1, 2)) == [2]

    def test_withdraw_forgets_the_vector(self):
        table = self.diamond()
        handle_withdraw(table, 1)
        assert set(table.heard) == {2}


class TestDiscovery:
    def test_request_fanout(self):
        table = init_routing(0, {1, 2})
        msg = trigger_discovery(table, 9)
        assert msg.kind is MessageKind.DISCOVERY_REQUEST
        assert (msg.origin, msg.target, msg.ttl) == (0, 9, INF)
        assert (0, 9) in table.discovery_seen

    def test_forward_once_with_one_less_ttl(self):
        table = init_routing(5, set())
        msg = ControlMessage(MessageKind.DISCOVERY_REQUEST, origin=0, target=9, ttl=4)
        fwd = forward_discovery(table, msg)
        assert (fwd.kind, fwd.origin, fwd.target, fwd.ttl) == (msg.kind, 0, 9, 3)
        assert forward_discovery(table, msg) is None  # this flood was seen

    def test_origin_does_not_forward_its_own_flood(self):
        table = init_routing(0, {1})
        assert forward_discovery(table, trigger_discovery(table, 9)) is None

    def test_expired_ttl_stops_the_flood(self):
        table = init_routing(5, set())
        msg = ControlMessage(MessageKind.DISCOVERY_REQUEST, origin=0, target=9, ttl=1)
        assert forward_discovery(table, msg) is None
        assert table.discovery_seen == set()

    def test_target_stops_the_flood(self):
        table = init_routing(9, set())
        msg = ControlMessage(MessageKind.DISCOVERY_REQUEST, origin=0, target=9, ttl=INF)
        assert forward_discovery(table, msg) is None

    def test_cold_sender_learns_far_end_from_answers(self):
        # Path 0-1-2-3-4 with warm tables everywhere except the sender.
        adjacency = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        tables, _ = converge(adjacency)
        tables[0] = init_routing(0, set())  # cold: not even neighbours

        request = trigger_discovery(tables[0], 4)
        inbox = [(0, to, request) for to in sorted(adjacency[0])]
        while inbox:
            sender, node, msg = inbox.pop(0)
            # Every receiver answers with a full advertisement to the asker.
            process_advertisement(tables[sender], node, make_advertisement(tables[node], sender))
            fwd = forward_discovery(tables[node], msg)
            if fwd is not None:
                inbox.extend((node, m, fwd) for m in sorted(adjacency[node]) if m != sender)

        assert tables[0].cost_to(4) == bfs_distances(adjacency, 0)[4] == 4


@pytest.mark.parametrize("inf", [INF, 3])
def test_every_small_graph_reconverges_after_each_failure(inf):
    # Every labeled graph on 2..4 nodes; CI runs 5 nodes (tests/exhaustive_routing.py).
    assert check_all(4, inf) == 489


class TestConvergence:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_bfs_on_random_graphs(self, seed):
        positions = random_positions(seed * 7 + 1, n_range=(5, 25))
        adjacency = geometric_adjacency(positions)
        tables, rounds = converge(adjacency)
        assert_matches_bfs(tables, adjacency)
        assert rounds < 60  # quiescence on a static topology

    @pytest.mark.parametrize("seed", range(10))
    def test_costs_never_exceed_inf(self, seed):
        positions = random_positions(seed + 500, n_range=(5, 20))
        adjacency = geometric_adjacency(positions)
        tables, _ = converge(adjacency)
        for table in tables.values():
            assert all(e.cost <= INF for e in table.entries.values())
            assert table.entries[table.owner].cost == 0


# Reference model: the full relaxation with no cache and no repeat shortcut,
# over plain {dest: (next_hop, cost)} dicts. The property below checks the
# module against it step by step.


def ref_init(owner, neighbors):
    table = {owner: (owner, 0)}
    table.update((m, (m, 1)) for m in neighbors if m != owner)
    return table


def ref_advertisement(table, owner, inf, to):
    return tuple(
        (d, min(inf if (nh == to and d != owner) else cost, inf))
        for d, (nh, cost) in sorted(table.items())
    )


def ref_process(table, owner, inf, from_, entries):
    advertised = {d: min(c, inf) for d, c in entries}
    changed = False
    for dest, cost in advertised.items():
        if dest == owner:
            continue
        candidate = min(cost + 1, inf)
        entry = table.get(dest)
        if entry is None:
            if candidate < inf:
                table[dest] = (from_, candidate)
                changed = True
        elif candidate < entry[1]:
            table[dest] = (from_, candidate)
            changed = True
        elif entry[0] == from_ and candidate != entry[1]:
            table[dest] = (None if candidate >= inf else from_, candidate)
            changed = True
    for dest, (nh, cost) in list(table.items()):
        if dest != owner and nh == from_ and dest not in advertised and cost < inf:
            table[dest] = (None, inf)
            changed = True
    return changed


def ref_next_hops(table, heard, inf, dest, links):
    """Linked neighbours whose last advertised cost + 1 is the cost to ``dest``,
    else the entry's own next hop while it is linked."""
    entry = table.get(dest)
    if entry is None or entry[1] >= inf:
        return []
    hops = [m for m in links if m in heard and heard[m].get(dest, inf) + 1 == entry[1]]
    if not hops and entry[0] in links:
        hops = [entry[0]]
    return hops


def ref_withdraw(table, owner, inf, leaving):
    changed = False
    if leaving in table and leaving != owner:
        del table[leaving]
        changed = True
    for dest, (nh, _) in list(table.items()):
        if nh == leaving and dest != owner:
            table[dest] = (None, inf)
            changed = True
    return changed


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_incremental_relaxation_matches_full_pass(data):
    """Real, repeated, hand-made, raised and truncated vectors plus withdraws."""
    n = data.draw(st.integers(2, 6), label="nodes")
    inf = data.draw(st.sampled_from([INF, 4]), label="inf")
    edges = data.draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
        label="edges",
    )
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    pairs = sorted((a, b) for a in adjacency for b in adjacency[a])
    pairs = pairs or [(a, b) for a in range(n) for b in range(n) if a != b]
    tables = {i: init_routing(i, adjacency[i], inf) for i in range(n)}
    refs = {i: ref_init(i, adjacency[i]) for i in range(n)}
    last = {}  # (sender, receiver) -> entries of the last vector sent
    costs = st.integers(0, inf + 2)

    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        step = data.draw(st.sampled_from(["real", "repeat", "made", "raise", "withdraw"]))
        a, b = data.draw(st.sampled_from(pairs))
        if step == "withdraw":
            assert handle_withdraw(tables[b], a) == ref_withdraw(refs[b], b, inf, a)
        else:
            entries = last.get((a, b))
            if step == "made":
                made = data.draw(st.dictionaries(st.integers(0, n), costs, max_size=n + 1))
                entries = tuple(sorted(made.items()))
            elif step == "raise" and entries is not None:
                entries = tuple(
                    (d, c + data.draw(st.integers(0, 3)))
                    for d, c in entries
                    if data.draw(st.booleans())
                )
            elif step == "real" or entries is None:
                entries = make_advertisement(tables[a], b).entries
                assert entries == ref_advertisement(refs[a], a, inf, b)
            adv = advert(a, entries)
            want = ref_process(refs[b], b, inf, a, entries)
            assert process_advertisement(tables[b], a, adv) == want
            last[(a, b)] = entries
        got = {d: (e.next_hop, e.cost) for d, e in tables[b].entries.items()}
        assert got == refs[b]
        for m in range(n):
            if m != b:
                assert make_advertisement(tables[b], m).entries == ref_advertisement(refs[b], b, inf, m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_delta_relaxation_matches_full_pass(data):
    """Real advertisements across many versions: repeated, stale, skipped and overflowing.

    Tables change in bursts between deliveries, so receivers see vectors
    several versions apart and raise their own entries many times between
    two vectors from one sender, sometimes more than the change records reach
    back; withdraws and hand-made vectors move ``raised`` in between. An
    undercut raises the receiver more times than its records reach back
    between two deliveries of the same vector, on first contact too. After
    every step, next_hops must pick what the last advertisement heard from
    each sender says, poisoning included, cached or not.
    """
    n = data.draw(st.integers(2, 6), label="nodes")
    inf = data.draw(st.sampled_from([INF, 4]), label="inf")
    edges = data.draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
        label="edges",
    )
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    pairs = sorted((a, b) for a in adjacency for b in adjacency[a])
    pairs = pairs or [(a, b) for a in range(n) for b in range(n) if a != b]
    # A few busy links, so that most deliveries repeat a link.
    pairs = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    tables = {i: init_routing(i, adjacency[i], inf) for i in range(n)}
    refs = {i: ref_init(i, adjacency[i]) for i in range(n)}
    sent = {}  # (sender, receiver) -> every real advertisement built for that link
    # Receiver -> sender -> the entries of the last advertisement it relaxed.
    ref_heard = {i: {} for i in range(n)}
    costs = st.integers(0, inf)
    # One tuple for the whole run, as the kernel's links between two changes,
    # so next_hops answers from its cache until the table changes.
    links = tuple(range(n + 2))

    def deliver(a, b, adv):
        want = ref_process(refs[b], b, inf, a, adv.entries)
        assert process_advertisement(tables[b], a, adv) == want
        ref_heard[b][a] = dict(adv.entries)

    def send(a, b, history):
        adv = make_advertisement(tables[a], b)
        assert adv.entries == ref_advertisement(refs[a], a, inf, b)
        history.append(adv)
        deliver(a, b, adv)

    def hear_outsider(b, entries):
        deliver(n, b, advert(n, entries))

    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        step = data.draw(
            st.sampled_from(
                ["send", "send", "send", "repeat", "stale", "burst", "undercut", "made",
                 "misaddressed", "withdraw"]
            )
        )
        a, b = data.draw(st.sampled_from(pairs))
        history = sent.setdefault((a, b), [])
        if step == "send" or (step in ("repeat", "stale") and not history):
            send(a, b, history)
        elif step == "undercut":
            # b hears a's vector (a first one, if a never sent one), then a
            # neighbour n outside the graph offers every destination in it at
            # cost 0, drops them all, and raises n + 1 more often than the
            # records reach back. a's unchanged vector, heard again, must win
            # the dropped destinations back.
            if not history:
                send(a, b, history)
            dests = sorted(history[-1].vector.costs)
            hear_outsider(b, ((n, 0), *((d, 0) for d in dests if d != n)))
            hear_outsider(b, ((n, 0),))
            for k in range(data.draw(st.integers(2 * CHANGE_DEPTH + 2, 6 * CHANGE_DEPTH))):
                hear_outsider(b, ((n, 0), (n + 1, (inf - 1) * (k % 2))))
            deliver(a, b, history[-1])
        elif step == "repeat":
            deliver(a, b, history[-1])
        elif step == "stale":
            deliver(a, b, data.draw(st.sampled_from(history)))
        elif step == "burst":
            # One end of the link hears a neighbour n outside the graph offer a
            # destination cheaply, then dearly, first some d and then n + 1
            # over and over: a rise every other time, up to three times the
            # record depth in a row. It sometimes advertises to the other end
            # in between, undelivered.
            at, other = data.draw(st.sampled_from([(a, b), (b, a)]))
            d = data.draw(st.integers(0, n + 1))
            lo = data.draw(st.integers(0, inf - 2))
            hi = data.draw(st.integers(lo + 1, inf))
            length = data.draw(st.integers(1, 3 * CHANGE_DEPTH))
            builds = data.draw(st.lists(st.booleans(), min_size=length, max_size=length))
            for k, build in enumerate(builds):
                entries = ((n, 0), (d if k < 2 else n + 1, hi if k % 2 else lo))
                deliver(n, at, advert(n, tuple(sorted(entries))))
                if build:
                    built = make_advertisement(tables[at], other)
                    assert built.entries == ref_advertisement(refs[at], at, inf, other)
            b = at
        elif step == "made":
            made = data.draw(st.dictionaries(st.integers(0, n), costs, max_size=n + 1))
            entries = tuple(sorted(made.items()))
            deliver(a, b, advert(a, entries))
        elif step == "misaddressed":
            # A vector poisoned for another receiver: same costs, other poisoned set.
            other = data.draw(st.sampled_from([m for m in range(n + 1) if m != a]))
            deliver(a, b, make_advertisement(tables[a], other))
        else:
            assert handle_withdraw(tables[b], a) == ref_withdraw(refs[b], b, inf, a)
            ref_heard[b].pop(a, None)
        got = {d: (e.next_hop, e.cost) for d, e in tables[b].entries.items()}
        assert got == refs[b]
        for d in range(n + 2):
            want = ref_next_hops(refs[b], ref_heard[b], inf, d, links)
            assert next_hops(tables[b], d, links) == want
        if data.draw(st.booleans(), label="check every advertisement"):
            for m in range(n):
                if m != b:
                    assert make_advertisement(tables[b], m).entries == ref_advertisement(refs[b], b, inf, m)


def _reachable(root, kind):
    """How many ``kind`` objects ``root`` keeps alive through routing state and containers."""
    walk = (dict, list, tuple, set, frozenset, RoutingTable, RouteEntry, ControlMessage, Vector,
            ChangeRecord)
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or type(obj) not in walk:
            continue
        seen.add(id(obj))
        found += isinstance(obj, kind)
        stack.extend(gc.get_referents(obj))
    return found


def _chain_length(head):
    length = 0
    while head is not None:
        length += 1
        head = head.parent
    return length


def test_change_records_reach_back_no_further_than_their_depth():
    sender, receiver = init_routing(0, {1, 2}), init_routing(1, {0})
    for k in range(1000):
        # Node 2's cost to 5 alternates, so every step changes the sender's
        # table, and every other step raises an entry.
        news = advert(2, ((2, 0), (5, 1 + k % 2)))
        assert process_advertisement(sender, 2, news) is True
        process_advertisement(receiver, 0, make_advertisement(sender, 1))
        assert receiver.cost_to(5) == sender.cost_to(5) + 1
    # Each chain is full, and cut at its depth.
    assert _chain_length(sender.vector.record) == CHANGE_DEPTH
    assert _chain_length(sender.risen) == CHANGE_DEPTH
    assert _chain_length(receiver.risen) == CHANGE_DEPTH
    # Besides its own two chains, the sender keeps node 2's last
    # advertisement, whose vector has one record, and the receiver keeps the
    # sender's last advertisement, whose vector holds the sender's chain.
    assert _reachable(sender, ChangeRecord) == 2 * CHANGE_DEPTH + 1
    assert _reachable(receiver, ChangeRecord) == 2 * CHANGE_DEPTH
    assert _reachable(sender, Vector) == 2
    assert _reachable(receiver, Vector) == 1
