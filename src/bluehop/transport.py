"""End-to-end delivery: sealing, fragmentation, acks and retransmission.

Payloads are sealed with a deterministic keystream drawn, like every seeded
byte, from ``seeded_random`` under the scenario seed and the (source,
destination) pair, so relays can forward but never read them; only the
destination opens the seal. Sealed payloads are split into slot-sized
fragments, acknowledged end to end after reassembly, and retransmitted over
an alternate first hop when the ack timer expires.
"""
from __future__ import annotations

import functools
import random

from . import routing
from .baseband import BITS_PER_SLOT, SLOT_LENGTHS


class OpacityViolation(AssertionError):
    """A node other than the destination tried to open a sealed payload."""


def seeded_random(label: str, seed: int) -> random.Random:
    """The generator of every byte that ``label`` draws under the engine seed.

    ``Random`` seeds from a text's SHA-512, so each (label, seed) text,
    negative or wide seeds included, starts a stream of its own.
    """
    return random.Random(f"{label}:{seed}")


@functools.lru_cache(maxsize=64)
def _seal_key(seed: int, src: int, dst: int, length: int) -> int:
    """The seal keystream as one integer; a flow's messages repeat it."""
    return seeded_random(f"seal:{src}:{dst}", seed).getrandbits(8 * length)


def seal_payload(plaintext: bytes, src: int, dst: int, scenario_seed: int) -> bytes:
    """XOR the plaintext with the (seed, src, dst) keystream; length preserved."""
    n = len(plaintext)
    x = int.from_bytes(plaintext, "big") ^ _seal_key(scenario_seed, src, dst, n)
    return x.to_bytes(n, "big")


def open_payload_at(
    node: int, sealed: bytes, src: int, dst: int, scenario_seed: int
) -> bytes:
    """Open a sealed payload, asserting the caller is the destination.

    Sealing is an XOR with the keystream, so it is its own inverse.
    """
    if node != dst:
        raise OpacityViolation(f"node {node} tried to open a payload sealed for {dst}")
    return seal_payload(sealed, src, dst, scenario_seed)


def make_payload(scenario_seed: int, msg_id: int, size: int) -> bytes:
    """Deterministic synthetic traffic payload of ``size`` bytes.

    Not memoised: its msg_id never repeats within a run.
    """
    return seeded_random(f"payload:{msg_id}", scenario_seed).randbytes(size)


def max_fragment_bytes(bits_per_slot: int = BITS_PER_SLOT) -> int:
    return (SLOT_LENGTHS[-1] * bits_per_slot) // 8


def fragment_sealed(sealed: bytes, bits_per_slot: int = BITS_PER_SLOT) -> list[bytes]:
    """Split a sealed payload into pieces each fitting the largest packet.

    An empty payload still yields one (empty) fragment so the message exists
    on the wire.
    """
    step = max_fragment_bytes(bits_per_slot)
    if not sealed:
        return [b""]
    return [sealed[i : i + step] for i in range(0, len(sealed), step)]


class DataPacket:
    __slots__ = ("msg_id", "src", "dst", "fragment_index", "fragment_count", "sealed_payload",
                 "payload_hex", "slots", "hop_trace")

    def __init__(self, msg_id: int, src: int, dst: int, fragment_index: int,
                 fragment_count: int, sealed_payload: bytes, payload_hex: str, slots: int,
                 hop_trace: list[int]):
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.fragment_index = fragment_index
        self.fragment_count = fragment_count
        self.sealed_payload = sealed_payload
        # The sealed payload as every hop traces it, encoded once per send.
        self.payload_hex = payload_hex
        self.slots = slots
        # Simulator-only observability: every node the packet has visited,
        # starting with the source.
        self.hop_trace = hop_trace


class Ack:
    """End-to-end acknowledgement, emitted by the destination after reassembly."""

    __slots__ = ("msg_id", "dst", "hops")

    def __init__(self, msg_id: int, dst: int, hops: int = 0):
        self.msg_id = msg_id
        self.dst = dst  # the data packet's source
        self.hops = hops


class PendingTransfer:
    """One message's sender-side state, from its send to the end of the run."""

    def __init__(self, msg_id: int, src: int, dst: int, fragments: list[bytes],
                 sent_at: int = 0):
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.fragments = fragments
        self.sent_at = sent_at
        # The armed ack timer's time; None once the transfer is resolved.
        self.deadline: int | None = None
        self.routes_tried: set[int] = set()
        self.retransmissions = 0
        self.last_drop_class: str | None = None
        self.delivered = False
        self.failed = False


def choose_first_hop(
    candidates: list[tuple[int, int]], routes_tried: set[int]
) -> int | None:
    """Pick a first hop among (queued frames, neighbour) pairs, preferring one
    not tried before.

    Falls back to the best available candidate when every minimal-cost
    neighbour has been tried already.
    """
    fresh = [(depth, n) for depth, n in candidates if n not in routes_tried]
    return routing.select_next_hop(fresh if fresh else candidates)
