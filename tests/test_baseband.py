import pytest
from hypothesis import given, strategies as st

from bluehop.baseband import (
    BITS_PER_SLOT,
    CHANNEL_COUNT,
    HOP_RATE_HZ,
    SLOT_HUS,
    SLOT_LENGTHS,
    SLOT_PAIR_US,
    SLOT_US,
    SLOTS_PER_SECOND,
    TICK_HUS,
    TICK_US,
    HopSequence,
    OversizePayloadError,
    hop_channel,
    next_tx_start_hus,
    slots_for_payload,
    tx_duration_hus,
    tx_duration_us,
)
from bluehop.scatternet import form_scatternet


def star_scatternet():
    """Master 0 with nine leaves: seven active slaves, then two parked."""
    return form_scatternet({0: set(range(1, 10)), **{leaf: {0} for leaf in range(1, 10)}})


def starts_in(slot, parity):
    """Whether a sender of ``parity`` may start transmitting at ``slot``."""
    return next_tx_start_hus(slot * SLOT_HUS, parity) == slot * SLOT_HUS


class TestConstants:
    def test_tick_is_half_microsecond_exact(self):
        assert TICK_US == 312.5
        assert TICK_HUS == 625
        assert SLOT_HUS == 2 * TICK_HUS

    def test_sixteen_hundred_slots_per_second(self):
        assert SLOTS_PER_SECOND == 1600
        assert SLOTS_PER_SECOND * SLOT_US == 1_000_000
        assert HOP_RATE_HZ == 1600


class TestSlotsForPayload:
    # Enumerated against the three capacity tiers 625/1875/3125.
    @pytest.mark.parametrize(
        "bits,slots",
        [(0, 1), (1, 1), (624, 1), (625, 1), (626, 3), (1875, 3), (1876, 5), (3125, 5)],
    )
    def test_tiers(self, bits, slots):
        assert slots_for_payload(bits) == slots

    def test_exhaustive_minimality(self):
        for bits in range(0, 3126):
            slots = slots_for_payload(bits)
            assert slots * BITS_PER_SLOT >= bits
            smaller = [s for s in SLOT_LENGTHS if s < slots]
            assert all(s * BITS_PER_SLOT < bits for s in smaller)

    def test_oversize_rejected(self):
        with pytest.raises(OversizePayloadError):
            slots_for_payload(3126)

    def test_rate_multiplier_scales_capacity(self):
        assert slots_for_payload(1876, bits_per_slot=1875) == 3
        assert slots_for_payload(3 * 3125, bits_per_slot=3 * 625) == 5


class TestTxDuration:
    def test_single_slot(self):
        assert tx_duration_us(1) == 625

    def test_slot_pair(self):
        assert tx_duration_us(2) == SLOT_PAIR_US == 1250

    def test_five_slots(self):
        assert tx_duration_us(5) == 5 * 625
        assert tx_duration_hus(5) == 5 * SLOT_HUS


class TestHopChannel:
    def test_frozen_prefix(self):
        seq = HopSequence(seed=123456789)
        assert [hop_channel(seq, i) for i in range(10)] == [
            66, 48, 71, 56, 4, 45, 38, 61, 58, 73,
        ]

    @given(st.integers(min_value=0, max_value=2**63), st.integers(0, 10**9))
    def test_in_range_and_deterministic(self, seed, slot):
        seq = HopSequence(seed=seed)
        c = hop_channel(seq, slot)
        assert 0 <= c < CHANNEL_COUNT
        assert hop_channel(seq, slot) == c

    def test_every_channel_appears(self):
        seq = HopSequence(seed=987654321)
        seen = {hop_channel(seq, i) for i in range(79_000)}
        assert seen == set(range(CHANNEL_COUNT))


class TestSlotOwner:
    def test_master_even(self):
        _, parity = star_scatternet().link_piconet(0, 1)
        assert parity == 0
        assert starts_in(0, parity) and not starts_in(1, parity)

    def test_slave_odd(self):
        _, parity = star_scatternet().link_piconet(1, 0)
        assert parity == 1
        assert starts_in(1, parity) and not starts_in(0, parity)

    def test_parked_not_schedulable(self):
        net = star_scatternet()
        parked = net.piconets[0].parked_slaves[0]
        assert net.link_piconet(0, parked) is None
        assert net.link_piconet(parked, 0) is None

    def test_exactly_one_direction_per_slot(self):
        net = star_scatternet()
        master = net.link_piconet(0, 1)[1]
        slave = net.link_piconet(1, 0)[1]
        for slot in range(10):
            assert starts_in(slot, master) != starts_in(slot, slave)


class TestNextTxStart:
    def test_aligned_even_slot_starts_now(self):
        assert next_tx_start_hus(0, 0) == 0

    def test_waits_for_parity(self):
        # Mid slot 0, master parity: the next even slot is 2.
        assert next_tx_start_hus(1, 0) == 2 * SLOT_HUS
        # Slave (odd) parity from slot 0 start waits one slot.
        assert next_tx_start_hus(0, 1) == SLOT_HUS

    def test_multislot_start_parity_example(self):
        # A 3-slot master packet starting at slot 4 occupies slots 4-6; the
        # slave's next opportunity is slot 7.
        start = next_tx_start_hus(4 * SLOT_HUS, 0)
        assert start == 4 * SLOT_HUS
        end = start + tx_duration_hus(3)
        assert end == 7 * SLOT_HUS
        assert next_tx_start_hus(end, 1) == 7 * SLOT_HUS
        occupied = range(start // SLOT_HUS, end // SLOT_HUS)
        assert list(occupied) == [4, 5, 6]
