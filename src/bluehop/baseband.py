"""Slot and clock arithmetic, packet slot counts, and the hop sequence.

The simulator keeps time in integer half-microsecond units ("hus") so that
the 312.5 us clock tick is an exact integer (625 hus). Two ticks make a
625 us slot; masters transmit in even slots and active slaves in odd slots.
Each slot carries up to 625 bits at the canonical 1 Mbps symbol rate and
hops to a new channel out of 79, i.e. 1600 slots (and hops) per second.
"""
from __future__ import annotations

from dataclasses import dataclass

TICK_US = 312.5
TICK_HUS = 625            # half-microsecond units per clock tick
SLOT_HUS = 2 * TICK_HUS   # 1250 hus = 625 us
SLOT_US = 625
SLOT_PAIR_US = 1250
BITS_PER_SLOT = 625
SLOT_LENGTHS = (1, 3, 5)
CHANNEL_COUNT = 79
HOP_RATE_HZ = 1600
SLOTS_PER_SECOND = 1_000_000 // SLOT_US

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class OversizePayloadError(ValueError):
    pass


@dataclass(frozen=True)
class HopSequence:
    seed: int


def slots_for_payload(payload_bits: int, bits_per_slot: int = BITS_PER_SLOT) -> int:
    """Fewest slots, 1, 3 or 5, whose capacity covers ``payload_bits``.

    Payloads beyond the 5-slot capacity raise OversizePayloadError; callers
    must fragment first.
    """
    if payload_bits < 0:
        raise ValueError("payload_bits must be non-negative")
    for slots in SLOT_LENGTHS:
        if payload_bits <= slots * bits_per_slot:
            return slots
    raise OversizePayloadError(
        f"{payload_bits} bits exceeds the {SLOT_LENGTHS[-1] * bits_per_slot}-bit packet ceiling"
    )


def tx_duration_us(slots: int) -> int:
    return slots * SLOT_US


def tx_duration_hus(slots: int) -> int:
    return slots * SLOT_HUS


def hop_channel(seq: HopSequence, slot_index: int) -> int:
    """Channel used in ``slot_index``, derived from the sequence seed.

    A splitmix64-style mix keeps the sequence reproducible from
    (seed, slot_index) alone while spreading over all channels.
    """
    if slot_index < 0:
        raise ValueError("slot_index must be non-negative")
    z = (seq.seed + (slot_index + 1) * _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z % CHANNEL_COUNT


def next_tx_start_hus(now_hus: int, parity: int) -> int:
    """Earliest start at or after ``now_hus`` on an even (0) or odd (1) slot boundary."""
    slot = now_hus // SLOT_HUS
    if now_hus % SLOT_HUS:
        slot += 1
    if slot % 2 != parity:
        slot += 1
    return slot * SLOT_HUS
