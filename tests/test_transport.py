import pytest
from hypothesis import given, strategies as st

from bluehop import scenario_path, transport
from bluehop.transport import (
    Ack,
    OpacityViolation,
    PendingTransfer,
    choose_first_hop,
    fragment_sealed,
    make_payload,
    max_fragment_bytes,
    open_payload_at,
    seal_payload,
    seeded_random,
)
from bluehop.scenario import parse_scenario, validate_scenario
from bluehop.simkernel import run_scenario

LABELS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz:0123456789-", max_size=12)
SEEDS = st.integers(-(2**70), 2**70)


class TestSeededRandom:
    @given(LABELS, SEEDS, st.integers(0, 2000))
    def test_draws_are_as_long_as_asked_and_repeat(self, label, seed, length):
        drawn = seeded_random(label, seed).randbytes(length)
        assert len(drawn) == length
        assert seeded_random(label, seed).randbytes(length) == drawn

    @given(LABELS, SEEDS, LABELS, SEEDS)
    def test_distinct_label_seed_texts_draw_distinct_bytes(self, label, seed, other, other_seed):
        if f"{label}:{seed}" != f"{other}:{other_seed}":
            assert (seeded_random(label, seed).randbytes(16)
                    != seeded_random(other, other_seed).randbytes(16))


# Each seed against one that a sign fold or a 64-bit packing would merge with it.
@pytest.mark.parametrize("seed,other", [(1, -1), (1, 2**64 + 1)])
def test_every_seed_draws_its_own_payloads_seals_and_channels(seed, other):
    config = parse_scenario(scenario_path("churn25.json"))  # scatternet mode

    def seeded(trace):
        return {
            field: [r["detail"][field] for r in trace if field in r["detail"]]
            for field in ("plaintext", "payload", "channel")
        }

    mine, theirs = seeded(run_scenario(config, seed)[1]), seeded(run_scenario(config, other)[1])
    for field, values in mine.items():
        assert values and len(values) == len(theirs[field])
        assert values != theirs[field], field


@pytest.mark.parametrize("name,keys", [("churn25", 1), ("line5", 0)])
def test_a_run_draws_one_hop_key_however_often_it_re_forms(name, keys, monkeypatch):
    # churn25 is in scatternet mode and re-forms its piconets; line5 is geometric.
    config = parse_scenario(scenario_path(f"{name}.json"))
    labels = []

    def counted(label, seed):
        labels.append(label)
        return seeded_random(label, seed)

    monkeypatch.setattr(transport, "seeded_random", counted)
    formations = sum(r["kind"] == "scatternet" for r in run_scenario(config, 0)[1])
    assert formations > 1 if keys else formations == 0
    assert labels.count("hop") == keys


class TestSeal:
    @given(st.binary(max_size=300), st.integers(0, 254), st.integers(0, 254), st.integers(0, 2**32))
    def test_round_trip(self, plaintext, src, dst, seed):
        sealed = seal_payload(plaintext, src, dst, seed)
        assert open_payload_at(dst, sealed, src, dst, seed) == plaintext

    def test_empty_payload(self):
        assert seal_payload(b"", 1, 2, 7) == b""

    def test_length_preserved_and_payload_hidden(self):
        p = b"the quick brown fox"
        sealed = seal_payload(p, 3, 4, 11)
        assert len(sealed) == len(p)
        assert sealed != p

    def test_xors_the_flows_seeded_keystream(self):
        # Frozen vectors, so drift across runs or interpreters cannot go unnoticed.
        assert seal_payload(b"hello world", 1, 2, 42).hex() == "881c4be5ddb6d0701df459"
        assert make_payload(42, 7, 8).hex() == "e83625f18bc47dd1"
        # Twice each, so the memoised key is read back too.
        for length in (0, 1, 31, 32, 33, 200, 2000):
            key = seeded_random("seal:1:2", 42).getrandbits(8 * length)
            payload = seeded_random("payload:7", 42).randbytes(length)
            for _ in range(2):
                assert seal_payload(bytes(length), 1, 2, 42) == key.to_bytes(length, "big")
                assert make_payload(42, 7, length) == payload

    def test_mismatched_key_garbles(self):
        p = b"confidential!"
        sealed = seal_payload(p, 1, 2, 42)
        assert open_payload_at(3, sealed, 1, 3, 42) != p
        assert open_payload_at(2, sealed, 1, 2, 43) != p

    def test_open_at_relay_trips_assertion(self):
        sealed = seal_payload(b"data", 1, 2, 0)
        with pytest.raises(OpacityViolation):
            open_payload_at(5, sealed, 1, 2, 0)
        assert open_payload_at(2, sealed, 1, 2, 0) == b"data"


class TestFragmentation:
    def test_small_payload_is_one_fragment(self):
        assert fragment_sealed(b"x" * 50) == [b"x" * 50]

    def test_empty_payload_still_ships_one_fragment(self):
        assert fragment_sealed(b"") == [b""]

    def test_seven_thousand_bit_payload_splits_into_three(self):
        # 875 bytes = 7000 bits against the 5-slot (3125-bit, 390-byte) cap.
        sealed = bytes(range(256)) * 3 + b"z" * 107
        assert len(sealed) == 875
        pieces = fragment_sealed(sealed)
        assert [len(p) for p in pieces] == [390, 390, 95]
        assert b"".join(pieces) == sealed

    def test_fragment_cap_is_five_slots(self):
        assert max_fragment_bytes() == (5 * 625) // 8 == 390

    def test_packets_carry_fragment_metadata(self):
        # 875 sealed bytes between two neighbours: fragments of 390, 390 and
        # 95 bytes go out as 5-, 5- and 3-slot packets.
        config = validate_scenario(
            {
                "horizon": 0.5,
                "nodes": [
                    {"id": 1, "x": 0.0, "y": 0.0, "class": 3},
                    {"id": 2, "x": 5.0, "y": 0.0, "class": 3},
                ],
                "traffic": [{"time": 0.1, "src": 1, "dst": 2, "payload_bytes": 875}],
            }
        )
        _, trace = run_scenario(config, 0)
        tx = [r["detail"] for r in trace if r["kind"] == "data_tx"]
        assert [d["fragment"] for d in tx] == [0, 1, 2]
        assert [d["slots"] for d in tx] == [5, 5, 3]
        rx = [r["detail"] for r in trace if r["kind"] == "data_rx"]
        assert all(d["hop_trace"] == [1, 2] for d in rx)

    def test_rate_multiplier_raises_fragment_cap(self):
        sealed = b"a" * 875
        assert [len(p) for p in fragment_sealed(sealed, bits_per_slot=3 * 625)] == [875]


class TestPayloads:
    def test_make_payload_deterministic(self):
        assert make_payload(1, 2, 32) == make_payload(1, 2, 32)
        assert make_payload(1, 2, 32) != make_payload(1, 3, 32)
        assert len(make_payload(5, 0, 77)) == 77


class TestFirstHopChoice:
    def test_prefers_untried_route(self):
        assert choose_first_hop([(0, 1), (0, 2)], routes_tried={1}) == 2

    def test_falls_back_when_all_tried(self):
        assert choose_first_hop([(4, 1), (1, 2)], routes_tried={1, 2}) == 2

    def test_no_candidates(self):
        assert choose_first_hop([], routes_tried=set()) is None

    def test_choice_goes_through_routing_select_next_hop(self, monkeypatch):
        # A wrapper set on routing.select_next_hop sees every first-hop choice.
        offered = []
        monkeypatch.setattr(transport.routing, "select_next_hop", offered.append)
        choose_first_hop([(0, 1), (0, 2)], routes_tried={1})
        assert offered == [[(0, 2)]]


class TestTypes:
    def test_ack_direction(self):
        ack = Ack(msg_id=3, dst=1)
        assert ack.dst == 1

    def test_pending_transfer_defaults(self):
        pt = PendingTransfer(1, 0, 9, [b"p"])
        assert pt.routes_tried == set()
        assert (pt.retransmissions, pt.last_drop_class) == (0, None)
        assert (pt.deadline, pt.delivered, pt.failed) == (None, False, False)
