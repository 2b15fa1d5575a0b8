"""Labels and hyper-labels of the hash tree (paper §3).

Every edge of the hash tree carries a *label*: a non-empty bit string
whose first bit -- the *valid bit* -- says whether the edge descends left
(``0``) or right (``1``). The remaining bits of a multi-bit label are
*skipped*: the traversal ignores as many id bits as the label has beyond
its valid bit. Multi-bit labels arise from splits on deeper bits and
from complex merges; their skipped bits are exactly the "unused bits"
complex split later promotes into valid bits.

The concatenation of the labels on the path from the root to a leaf is
that leaf's *hyper-label*, written with ``.`` separating labels, e.g.
``1.01.0``. An id (bit string) is *compatible* with a hyper-label iff at
every valid-bit position the id carries the valid bit's value; skipped
positions are wildcards (paper Figure 2).

This module is pure data -- no simulation dependencies -- so it can be
property-tested exhaustively.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["Label", "HyperLabel"]


def _check_bits(bits: str, what: str) -> None:
    if not isinstance(bits, str) or any(ch not in "01" for ch in bits):
        raise ValueError(f"{what} must be a string of 0/1 characters, got {bits!r}")


class Label:
    """One edge label: ``bits[0]`` is the valid bit, the rest is skipped.

    Immutable by contract. A plain slotted class, not a dataclass: the
    tree builds one per edge of every hyper-label it derives.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: str) -> None:
        _check_bits(bits, "label")
        if not bits:
            raise ValueError("a label must contain at least one bit")
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    @property
    def valid_bit(self) -> str:
        """The branch-selecting first bit (paper: 'valid bit')."""
        return self.bits[0]

    @property
    def skipped(self) -> str:
        """The wildcard tail of a multi-bit label (may be empty)."""
        return self.bits[1:]

    @property
    def width(self) -> int:
        """How many id bits traversing this edge consumes."""
        return len(self.bits)

    @property
    def is_multibit(self) -> bool:
        return len(self.bits) > 1

    def __str__(self) -> str:
        return self.bits


class HyperLabel:
    """A leaf's root-to-leaf label sequence plus the root's skip prefix.

    ``skip`` is the width of the root's pure-wildcard label (zero in a
    fresh tree; complex merges at the root grow it). The textual form
    follows the paper: labels joined with ``.``; a non-empty root skip is
    shown as a leading ``~k.`` marker, e.g. ``~2.1.01``.
    """

    __slots__ = ("skip", "labels", "_width", "_positions")

    def __init__(self, labels: Sequence[Label], skip: int = 0) -> None:
        if skip < 0:
            raise ValueError(f"root skip must be >= 0, got {skip}")
        self.skip = skip
        self.labels: Tuple[Label, ...] = tuple(
            lab if isinstance(lab, Label) else Label(lab) for lab in labels
        )
        # Lazily computed; a HyperLabel is immutable after construction
        # so both caches stay valid for its lifetime.
        self._width: int = -1
        self._positions: "Optional[List[Tuple[int, str]]]" = None

    @classmethod
    def parse(cls, text: str) -> "HyperLabel":
        """Parse the textual form produced by ``str(hyper_label)``."""
        skip = 0
        if text.startswith("~"):
            head, _, rest = text.partition(".")
            skip = int(head[1:])
            text = rest
        labels = [Label(part) for part in text.split(".") if part]
        return cls(labels, skip=skip)

    @property
    def width(self) -> int:
        """Total id bits consumed reaching the leaf (skip included)."""
        if self._width < 0:
            self._width = self.skip + sum(label.width for label in self.labels)
        return self._width

    def valid_positions(self) -> List[Tuple[int, str]]:
        """``(position, bit)`` pairs of valid bits, positions 1-based.

        Position ``k`` refers to the ``k``-th bit of an id's binary
        representation, exactly as in the paper's compatibility rule.
        Computed once; the hyper-label is immutable.
        """
        if self._positions is None:
            positions = []
            offset = self.skip
            for label in self.labels:
                positions.append((offset + 1, label.bits[0]))
                offset += len(label.bits)
            self._positions = positions
        return self._positions

    def pattern(self) -> str:
        """The prefix pattern this hyper-label matches, ``x`` = wildcard.

        >>> HyperLabel([Label("1"), Label("01")]).pattern()
        '10x'
        """
        chars = ["x"] * self.width
        for position, bit in self.valid_positions():
            chars[position - 1] = bit
        return "".join(chars)

    def matches(self, bits: str) -> bool:
        """Compatibility test of paper Figure 2.

        ``bits`` must be at least as long as :attr:`width`.
        """
        _check_bits(bits, "id bits")
        if len(bits) < self.width:
            raise ValueError(
                f"id has {len(bits)} bits but the hyper-label consumes {self.width}"
            )
        for pos, bit in self.valid_positions():
            if bits[pos - 1] != bit:
                return False
        return True

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLabel):
            return NotImplemented
        return self.skip == other.skip and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.skip, self.labels))

    def __str__(self) -> str:
        body = ".".join(str(label) for label in self.labels)
        if self.skip:
            return f"~{self.skip}.{body}" if body else f"~{self.skip}"
        return body

    def __repr__(self) -> str:
        return f"HyperLabel({str(self)!r})"
