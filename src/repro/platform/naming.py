"""Agent identities and their binary representations.

The paper's hash function ``H`` consumes "the binary representation of a
mobile agent's id" and deliberately avoids platform-specific naming
(§1: "our mechanism ... is not based on any particular agent-naming
scheme"). We therefore model an id as a fixed-width unsigned integer and
expose its bits most-significant first; how ids are *generated* is
pluggable:

* :class:`AgentNamer` mixes a creation counter through SplitMix64, so ids
  are uniformly spread over the id space regardless of creation order --
  the behaviour of a platform-assigned GUID.
* :class:`SkewedNamer` forces a common prefix onto a fraction of ids,
  producing the pathological distributions the complex-split machinery
  exists for (used by the split-policy ablation).
"""

from __future__ import annotations

from operator import itemgetter
from random import Random
from typing import Optional, Tuple

__all__ = [
    "AgentId",
    "AgentNamer",
    "SkewedNamer",
    "DEFAULT_ID_BITS",
    "prefix_bits",
    "shard_of",
    "validate_shards",
]

#: Width of agent ids in bits. 64 matches a GUID-ish platform id while
#: keeping the bit strings printable in debug output.
DEFAULT_ID_BITS = 64


class AgentId(tuple):
    """An immutable agent identity: an unsigned integer of fixed width.

    A ``(value, width)`` tuple underneath, so hashing, equality, ordering
    and dict / set membership run in C -- every table the mechanism keeps
    is keyed by one. The contract is ``value``, ``width``, the methods
    below, and hash / equality / ordering *between ids*; indexing,
    unpacking, ``len`` and equality with a bare pair come with the tuple
    and are not part of it (``repro.core``'s per-record loops and the
    wire codec's key column do unpack and build the pair directly).
    """

    __slots__ = ()

    def __new__(cls, value: int, width: int = DEFAULT_ID_BITS) -> "AgentId":
        if width <= 0:
            raise ValueError(f"id width must be positive, got {width}")
        # value >> width, not 1 << width: a width forged on the wire must
        # fail here (or yield an id no table holds), never allocate 2**width.
        if value < 0 or value >> width:
            raise ValueError(f"id value {value} out of range for width {width}")
        return tuple.__new__(cls, (value, width))

    value = property(itemgetter(0), doc="The id as an unsigned integer.")
    width = property(itemgetter(1), doc="The id's width in bits.")

    def __getnewargs__(self) -> Tuple[int, int]:
        # pickle and copy rebuild through __new__(value, width); the
        # tuple's own answer would pass the pair as one argument.
        return tuple(self)

    def __repr__(self) -> str:
        return f"AgentId(value={self.value}, width={self.width})"

    @property
    def bits(self) -> str:
        """The binary representation, MSB first, zero padded to width."""
        return format(self.value, f"0{self.width}b")

    def bit(self, position: int) -> str:
        """The bit at 1-based ``position`` (1 = most significant)."""
        value, width = self
        if not 1 <= position <= width:
            raise IndexError(f"bit position {position} out of range 1..{width}")
        return "1" if value >> (width - position) & 1 else "0"

    def __str__(self) -> str:
        return f"agent-{self.value:x}"

    def short(self) -> str:
        """A compact human-readable form for logs."""
        return f"{self.value:016x}"[:8]


def validate_shards(shards: int) -> int:
    """``shards`` itself when it is a positive power of two; raises otherwise."""
    if shards < 1 or (shards & (shards - 1)) != 0:
        raise ValueError(f"shard count must be a positive power of two, got {shards}")
    return shards


def prefix_bits(shards: int) -> int:
    """How many leading id bits select a shard (``log2(shards)``)."""
    return validate_shards(shards).bit_length() - 1


def shard_of(agent_id: AgentId, shards: int) -> int:
    """The shard owning ``agent_id``: its top ``log2(shards)`` bits, an
    id narrower than that padded with zero bits, so every id maps to
    exactly one shard (:func:`repro.service.routing.shard_of_bits` is
    the bit-string form)."""
    spare = agent_id.width - prefix_bits(shards)
    value = agent_id.value
    return value >> spare if spare >= 0 else value << -spare


def splitmix64(state: int) -> int:
    """One step of the SplitMix64 mixing function (public domain).

    Used to turn sequential counters into uniformly distributed ids,
    deterministically and identically on every platform.
    """
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


#: Builds an ``AgentId`` from its ``(value, width)`` pair unchecked.
_new_tuple = tuple.__new__


class AgentNamer:
    """Generates uniformly distributed agent ids from a seeded counter."""

    def __init__(self, seed: int = 0, width: int = DEFAULT_ID_BITS) -> None:
        if width <= 0:
            raise ValueError(f"id width must be positive, got {width}")
        self._state = splitmix64(seed)
        self.width = width
        self._mask = (1 << width) - 1

    def next_id(self) -> AgentId:
        """Return a fresh id; successive calls never repeat in practice."""
        self._state = splitmix64(self._state)
        # Masked to a width checked once above: AgentId's range check
        # could not fail, so the tuple is built without it.
        return _new_tuple(AgentId, (self._state & self._mask, self.width))

    @property
    def state(self) -> int:
        """The generator position -- persist and restore it to guarantee
        a recovered coordinator never re-issues an already-used id."""
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._state = int(value)


class SkewedNamer(AgentNamer):
    """Generates ids where a fraction share a fixed high-bit prefix.

    With ``skew=0.8`` and ``prefix="0110"``, 80% of ids start with 0110.
    Extendible hashing degrades to long prefixes on such distributions;
    the complex-split ablation measures how much the unused label bits
    recover.
    """

    def __init__(
        self,
        seed: int = 0,
        width: int = DEFAULT_ID_BITS,
        prefix: str = "0000",
        skew: float = 0.9,
        rng: Optional[Random] = None,
    ) -> None:
        super().__init__(seed=seed, width=width)
        if not prefix or any(ch not in "01" for ch in prefix):
            raise ValueError(f"prefix must be a non-empty bit string: {prefix!r}")
        if not 0.0 <= skew <= 1.0:
            raise ValueError(f"skew must be in [0, 1], got {skew}")
        self.prefix = prefix
        self.skew = skew
        self._rng = rng or Random(splitmix64(seed ^ 0xABCDEF))

    def next_id(self) -> AgentId:
        base = super().next_id()
        if self._rng.random() >= self.skew:
            return base
        prefix_value = int(self.prefix, 2)
        shift = self.width - len(self.prefix)
        low_mask = (1 << shift) - 1
        return AgentId((prefix_value << shift) | (base.value & low_mask), self.width)
