"""The extendible hash tree (paper §3-§4): lookup, splits and merges.

The tree maps the binary representation of an agent id to the *owner*
(an IAgent key) responsible for that agent. It is deliberately pure: no
agents, no simulation -- just the data structure, so the figure-by-figure
reconstructions and the hypothesis property suites can drive it directly.

Structure
---------
Every node carries the label of its *incoming* edge. The root's label is
special: it has no valid bit and is entirely skipped (empty in a fresh
tree; complex merges at the root grow it -- this keeps merges local, see
DESIGN.md §4). For any other node, ``label[0]`` is the valid bit and
matches the side the node hangs on (``0`` left, ``1`` right).

Mutations
---------
``apply_split`` and ``apply_merge`` implement the four rehashing cases of
paper §4.1-§4.2:

* *simple split* -- the leaf's incoming label is padded with ``m - 1``
  skipped bits and two single-bit child edges are added, so the new
  valid bit is the ``m``-th not-yet-consumed id bit;
* *complex split* -- a skipped bit of a multi-bit label on the leaf's
  path is promoted into a valid bit by breaking the edge in two;
* *simple merge* -- a leaf whose sibling is a leaf collapses into the
  parent, which becomes the sibling owner's leaf;
* *complex merge* -- a leaf whose sibling is internal is removed and the
  sibling subtree is spliced into the parent's place, the parent and
  sibling labels concatenating (the sibling's valid bit demotes to a
  skipped bit).

Each mutation returns an outcome object naming the owners whose agent
sets changed, so the mechanism can transfer exactly those location
records -- the paper's locality guarantee ("the splitting and merging
process should affect the mapping of only the mobile agents and the
IAgents that are involved").

Compiled lookups
----------------
``lookup_id`` is the hottest read in the whole reproduction (every
resolve, on every requester and LHAgent copy). Instead of chasing node
pointers and re-measuring labels on every call, the tree lazily compiles
itself into flat parallel arrays -- per node the shift that brings its
branch bit to the bottom of the id's integer plus the indices of its two
children -- so a lookup is ``value >> shift & 1`` and two list reads per
level, with no bit string and no memo. The same arrays serve the
Hamming walks (:meth:`find_within_hamming`, :meth:`nearest`). ``lookup``
is the paper-facing string edge over the same walk. Every mutation
(``apply_split``/``apply_merge``) bumps :attr:`version` and drops the
compiled form; the property suite in ``tests/core/test_tree_compiled.py``
proves the compiled and the naive §3 traversal agree across arbitrary
rehash interleavings. A leaf's coverage pattern (:meth:`coverage`) is
read straight off its path; :meth:`hyper_label` builds the paper's
``Label`` objects and is the reference form tests compare against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.core.errors import CoreError, LastIAgentError, SplitFailedError
from repro.core.labels import HyperLabel, Label

__all__ = [
    "HashTree",
    "MAX_SIMPLE_M",
    "SplitCandidate",
    "SplitOutcome",
    "MergeOutcome",
    "TreeInvariantError",
]

OwnerKey = Hashable

#: The compiled dispatch arrays: ``(shifts, zeros, ones, owners)``.
Compiled = Tuple[List[int], List[int], List[int], List]

#: Largest ``m`` a simple split candidate reaches (the split on the
#: ``m``-th not-yet-consumed id bit); see DESIGN.md §4.
MAX_SIMPLE_M = 8


class TreeInvariantError(CoreError):
    """An internal consistency check failed (a bug, not a user error)."""


class _TreeNode:
    """A tree node; ``label`` is the incoming edge's bit string."""

    __slots__ = ("label", "parent", "left", "right", "owner")

    def __init__(
        self,
        label: str,
        parent: Optional["_TreeNode"] = None,
        owner: Optional[OwnerKey] = None,
    ) -> None:
        self.label = label
        self.parent = parent
        self.left: Optional[_TreeNode] = None
        self.right: Optional[_TreeNode] = None
        self.owner = owner

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def sibling(self) -> "_TreeNode":
        if self.parent is None:
            raise TreeInvariantError("the root has no sibling")
        return self.parent.right if self.parent.left is self else self.parent.left

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} label={self.label!r} owner={self.owner!r}>"


class SplitCandidate(tuple):
    """One admissible way of splitting a leaf:
    ``(owner, kind, bit_position, local)``.

    A split is named by the id bit it turns into a valid bit (paper
    §4.1), the same ``(kind, owner, bit)`` a journaled split records, so
    a candidate means the same split on every copy of the tree that
    still has it. A plain tuple, not a dataclass: the planner builds
    about a dozen per split.

    Attributes
    ----------
    owner:
        The overloaded IAgent whose leaf is being split.
    kind:
        ``"simple"`` or ``"complex"`` (paper §4.1).
    bit_position:
        1-based id-bit position that becomes the new valid bit; the
        mechanism partitions the leaf's agents on this bit to judge
        evenness.
    local:
        True when only ``owner``'s agents can change hands. Simple
        splits and complex splits of the leaf's own incoming edge are
        local; complex splits of an ancestor edge re-route part of a
        whole subtree (``scope="path"`` only). ``None`` on a split rebuilt
        from a journal entry, which does not record it: the tree then
        reads the answer off its own path.
    """

    __slots__ = ()

    def __new__(
        cls, owner: OwnerKey, kind: str, bit_position: int, local: Optional[bool] = None
    ) -> "SplitCandidate":
        return tuple.__new__(cls, (owner, kind, bit_position, local))

    owner = property(itemgetter(0))
    kind = property(itemgetter(1))
    bit_position = property(itemgetter(2))
    local = property(itemgetter(3))

    def __getnewargs__(self) -> Tuple:
        return tuple(self)

    def __repr__(self) -> str:
        owner, kind, bit_position, local = self
        return (
            f"SplitCandidate(owner={owner!r}, kind={kind!r},"
            f" bit_position={bit_position}, local={local})"
        )


@dataclass
class SplitOutcome:
    """What a split changed."""

    candidate: SplitCandidate
    old_owner: OwnerKey
    new_owner: OwnerKey
    #: Owners whose agent sets may have changed (old owner, and for a
    #: non-local complex split every owner of the re-routed subtree).
    affected_owners: List[OwnerKey]
    version: int


@dataclass
class MergeOutcome:
    """What a merge changed."""

    merged_owner: OwnerKey
    kind: str  # "simple" | "complex"
    #: Owners that absorb the merged IAgent's agents.
    absorbers: List[OwnerKey]
    version: int


class HashTree:
    """The extendible hash function H, as a mutable binary hash tree.

    Parameters
    ----------
    initial_owner:
        The single IAgent of a fresh system; the tree starts as one leaf
        covering the whole id space.
    width:
        Agent-id width in bits; splits refuse to consume beyond it.
    """

    def __init__(self, initial_owner: OwnerKey, width: int = 64) -> None:
        if width <= 0:
            raise ValueError(f"id width must be positive, got {width}")
        self.width = width
        self.version = 0
        self._root = _TreeNode(label="", owner=initial_owner)
        self._leaves: Dict[OwnerKey, _TreeNode] = {initial_owner: self._root}
        #: Compiled dispatch arrays (see _compile); None when stale.
        self._compiled: Optional[Compiled] = None

    # ------------------------------------------------------------------
    # Read operations
    # ------------------------------------------------------------------

    def lookup(self, bits: str) -> OwnerKey:
        """Return the owner responsible for an id's binary representation
        (MSB first) -- the paper-facing string edge of :meth:`lookup_id`."""
        return self.lookup_id((int(bits, 2), len(bits)))

    def lookup_id(self, agent: Any) -> OwnerKey:
        """Return the owner responsible for an id.

        ``agent`` is an :class:`~repro.platform.naming.AgentId` or any
        ``(value, width)`` pair. Implements the traversal of paper §3 --
        follow valid bits, skip the extra bits of multi-bit labels --
        over the compiled dispatch arrays, reading the id's integer.
        """
        value, (shifts, zeros, ones, owners) = self._query(agent)
        index = 0
        shift = shifts[0]
        while shift >= 0:
            index = ones[index] if value >> shift & 1 else zeros[index]
            shift = shifts[index]
        return owners[index]

    def _query(self, agent: Any) -> Tuple[int, Compiled]:
        """The id's top :attr:`width` bits as an integer (its low bits
        dropped), and the compiled arrays; an id narrower than the tree
        raises ``ValueError``."""
        value, width = agent
        if width < self.width:
            raise ValueError(f"id bits shorter ({width}) than tree width ({self.width})")
        return value >> (width - self.width), self._compiled or self._compile()

    def _compile(self) -> Compiled:
        """Flatten the tree into parallel dispatch arrays.

        Entry ``i`` describes one node, entry 0 the root: ``shifts[i]``
        brings the id bit its branch decision reads to the bottom of a
        :attr:`width`-bit value (``width - 1`` minus the bits consumed up
        to and including its own label), or is ``-1`` for a leaf, in
        which case ``owners[i]`` holds the owner; ``zeros[i]``/``ones[i]``
        are the child entries whose valid bit is 0 / 1. Rebuilt lazily
        after each mutation.
        """
        shifts: List[int] = []
        zeros: List[int] = []
        ones: List[int] = []
        owners: List = []

        def encode(node: _TreeNode, consumed: int) -> int:
            index = len(shifts)
            shifts.append(-1)
            zeros.append(0)
            ones.append(0)
            owners.append(None)
            consumed += len(node.label)
            if node.left is None:  # a leaf
                owners[index] = node.owner
            else:
                shifts[index] = self.width - 1 - consumed
                zeros[index] = encode(node.left, consumed)
                ones[index] = encode(node.right, consumed)
            return index

        encode(self._root, 0)
        self._compiled = (shifts, zeros, ones, owners)
        return self._compiled

    def owners(self) -> List[OwnerKey]:
        """All current owners (one per leaf)."""
        return list(self._leaves)

    def owner_count(self) -> int:
        return len(self._leaves)

    def has_owner(self, owner: OwnerKey) -> bool:
        return owner in self._leaves

    def hyper_label(self, owner: OwnerKey) -> HyperLabel:
        """The hyper-label of ``owner``'s leaf (paper §3): one ``Label``
        per edge of its path. The paper-facing reference form; the
        mechanism reads :meth:`coverage`."""
        path = self._path_to(self._leaf(owner))
        return HyperLabel([Label(node.label) for node in path[1:]], skip=len(path[0].label))

    def coverage(self, owner: OwnerKey) -> str:
        """The prefix pattern ``owner``'s leaf serves, ``x`` = wildcard:
        ``hyper_label(owner).pattern()``, read straight off the path --
        every root-label bit is ``x``, and each edge gives its valid bit
        then an ``x`` per skipped bit."""
        parts = []
        node = self._leaf(owner)
        while node.parent is not None:
            label = node.label
            parts.append(label[0] + "x" * (len(label) - 1))
            node = node.parent
        parts.append("x" * len(node.label))
        parts.reverse()
        return "".join(parts)

    def consumed_width(self, owner: OwnerKey) -> int:
        """Total id bits consumed reaching ``owner``'s leaf: its
        hyper-label's width, summed up the path without building one."""
        node: Optional[_TreeNode] = self._leaf(owner)
        width = 0
        while node is not None:
            width += len(node.label)
            node = node.parent
        return width

    def covers(self, owner: OwnerKey, bits: str) -> bool:
        """Whether ``owner`` serves the id with representation ``bits``."""
        return self.hyper_label(owner).matches(bits)

    def find_within_hamming(self, agent: Any, d: int) -> Dict[OwnerKey, int]:
        """Owners whose region intersects the Hamming ball of radius ``d``
        around the id ``agent`` (an ``AgentId`` or ``(value, width)``).

        A prefix-pruned walk (the cutespamtk ``find_all_hamming_distance``
        idea adapted to owner leaves): descending an edge whose valid bit
        differs from the query's bit there costs one mismatch, skipped
        label bits are wildcards and cost nothing, and a subtree is
        pruned as soon as its accumulated mismatch count exceeds the
        budget. The value recorded per owner is that count -- the *exact*
        minimum Hamming distance between the query and any id in the
        owner's region, since every non-valid position can be chosen to
        agree with the query.

        The owner covering the query itself is included (at distance 0):
        it may hold near neighbours even though the query id is excluded
        from agent-level results.
        """
        if d < 0:
            raise ValueError(f"hamming radius must be non-negative, got {d}")
        value, (shifts, zeros, ones, owners) = self._query(agent)
        found: Dict[OwnerKey, int] = {}
        stack = [(0, 0)]  # (entry, mismatches)
        while stack:
            index, cost = stack.pop()
            shift = shifts[index]
            if shift < 0:
                found[owners[index]] = cost
                continue
            bit = value >> shift & 1
            if cost + bit <= d:
                stack.append((zeros[index], cost + bit))
            if cost + 1 - bit <= d:
                stack.append((ones[index], cost + 1 - bit))
        return found

    def nearest(self, agent: Any, k: int) -> List[Tuple[OwnerKey, int]]:
        """The ``k`` owners nearest to the id ``agent``, best-first.

        Returns ``(owner, min_distance)`` pairs in non-decreasing order
        of the minimum Hamming distance between the query and any id in
        the owner's region -- a best-first frontier expansion over the
        same mismatch lower bound :meth:`find_within_hamming` prunes on,
        so only subtrees that can still beat the current k-th best are
        ever expanded.
        """
        if k <= 0:
            return []
        value, (shifts, zeros, ones, owners) = self._query(agent)
        frontier = [(0, 0)]  # (mismatches, entry)
        best: List[Tuple[OwnerKey, int]] = []
        while frontier and len(best) < k:
            cost, index = heapq.heappop(frontier)
            shift = shifts[index]
            if shift < 0:
                best.append((owners[index], cost))
                continue
            bit = value >> shift & 1
            heapq.heappush(frontier, (cost + bit, zeros[index]))
            heapq.heappush(frontier, (cost + 1 - bit, ones[index]))
        return best

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def split_candidates(self, owner: OwnerKey, scope: str = "leaf") -> List[SplitCandidate]:
        """Enumerate split candidates for ``owner`` in the paper's order.

        Complex candidates come first (left-most multi-bit label on the
        path, then within each label the first skipped bit first), then
        simple candidates with growing ``m`` up to :data:`MAX_SIMPLE_M`
        -- mirroring §4.1's "if the attempt ... fails, we consider the
        next" / "switch to simple split" procedure. The caller tries them
        in order against its evenness criterion.

        ``scope="leaf"`` keeps only local candidates (the default and
        the conservative reading of the paper's locality claim);
        ``scope="path"`` adds ancestor-edge complex splits that re-route
        subtrees.
        """
        if scope not in ("leaf", "path"):
            raise ValueError(f"scope must be 'leaf' or 'path', got {scope!r}")
        leaf = self._leaf(owner)
        candidates: List[SplitCandidate] = []

        # Complex candidates: walk the path root -> leaf, left-most first.
        offset = 0  # id bits consumed before the current node's label
        for node in self._path_to(leaf):
            length = len(node.label)
            local = node is leaf
            if scope == "path" or local:
                first_promotable = 0 if node.parent is None else 1
                for index in range(first_promotable, length):
                    candidates.append(
                        SplitCandidate(owner, "complex", offset + index + 1, local)
                    )
            offset += length

        # Simple candidates: split on the m-th not-yet-consumed bit.
        for position in range(offset + 1, min(offset + MAX_SIMPLE_M, self.width) + 1):
            candidates.append(SplitCandidate(owner, "simple", position, True))
        return candidates

    def _split_point(self, candidate: SplitCandidate) -> Tuple[_TreeNode, int]:
        """Where ``candidate`` splits this tree: ``(leaf, m)`` for a
        simple split on the ``m``-th unconsumed bit, ``(node, index)``
        for a complex one promoting ``node.label[index]``.

        ``(kind, bit_position)`` names a split of the owner's leaf
        uniquely: complex candidates promote skipped bits inside the
        leaf's consumed prefix, simple candidates sit beyond it. A bit
        that does not fit (consumed, a valid bit, no skipped bit there,
        beyond the id width) raises :class:`SplitFailedError`.
        """
        owner, kind, bit_position, _ = candidate
        leaf = self._leaf(owner)
        if kind == "simple":
            m = bit_position - self.consumed_width(owner)
            if m < 1:
                raise SplitFailedError(f"simple split bit {bit_position} already consumed")
            if bit_position > self.width:
                raise SplitFailedError(
                    f"simple split with m={m} would consume beyond {self.width} bits"
                )
            return leaf, m
        if kind != "complex":
            raise ValueError(f"unknown split kind {kind!r}")
        offset = 0
        for node in self._path_to(leaf):
            length = len(node.label)
            if offset < bit_position <= offset + length:
                index = bit_position - offset - 1
                if index < (0 if node.parent is None else 1):
                    raise SplitFailedError(
                        f"bit {bit_position} is a valid bit, not a skipped one"
                    )
                return node, index
            offset += length
        raise SplitFailedError(
            f"no skipped bit at position {bit_position} on the path to {owner!r}"
        )

    def affected_owners(self, candidate: SplitCandidate) -> List[OwnerKey]:
        """Owners whose agent sets ``candidate`` would re-route.

        Local candidates affect only the split owner; an ancestor-edge
        complex split affects every owner under the broken edge.
        """
        if candidate.local:
            return [candidate.owner]
        node, _ = self._split_point(candidate)
        if node.parent is None:
            return self.owners()
        return self._owners_under(node)

    def apply_split(
        self, candidate: SplitCandidate, new_owner: OwnerKey
    ) -> SplitOutcome:
        """Execute ``candidate``, registering ``new_owner`` for the new leaf.

        The split is found from ``(owner, kind, bit_position)`` on this
        tree, so a planned candidate and one rebuilt from a journal entry
        (the delta-sync replay, docs/PROTOCOLS.md) perform the same
        mutation; on a copy at the version the primary split at, the
        result is bit-for-bit the primary's.
        """
        if new_owner in self._leaves:
            raise ValueError(f"owner {new_owner!r} already has a leaf")
        if not self.has_owner(candidate.owner):
            raise SplitFailedError(
                f"owner {candidate.owner!r} is no longer in the tree"
            )
        node, index = self._split_point(candidate)
        if candidate.kind == "simple":
            affected = self._apply_simple_split(node, index, new_owner)
        elif node.parent is None:
            affected = self._complex_split_root(node, index, new_owner)
        else:
            affected = self._apply_complex_split(node, index, new_owner)
        self.version += 1
        self._compiled = None
        return SplitOutcome(
            candidate=candidate,
            old_owner=candidate.owner,
            new_owner=new_owner,
            affected_owners=affected,
            version=self.version,
        )

    def _apply_simple_split(
        self, leaf: _TreeNode, m: int, new_owner: OwnerKey
    ) -> List[OwnerKey]:
        old_owner = leaf.owner
        # Pad the incoming label with m-1 skipped bits: the split happens
        # on the m-th not-yet-consumed bit (paper §4.1, Figure 3).
        leaf.label = leaf.label + "0" * (m - 1)
        leaf.owner = None
        left = _TreeNode("0", parent=leaf, owner=old_owner)
        right = _TreeNode("1", parent=leaf, owner=new_owner)
        leaf.left, leaf.right = left, right
        self._leaves[old_owner] = left
        self._leaves[new_owner] = right
        return [old_owner]

    def _apply_complex_split(
        self, node: _TreeNode, index: int, new_owner: OwnerKey
    ) -> List[OwnerKey]:
        label = node.label
        stored_bit = label[index]
        other_bit = "1" if stored_bit == "0" else "0"
        upper_label, tail = label[:index], label[index + 1 :]

        # Break the edge: parent --upper_label--> joint, with the existing
        # node and the new leaf below, distinguished by the promoted bit.
        parent = node.parent
        joint = _TreeNode(upper_label, parent=parent)
        if parent.left is node:
            parent.left = joint
        else:
            parent.right = joint
        node.parent = joint
        node.label = stored_bit + tail
        new_leaf = _TreeNode(other_bit + tail, parent=joint, owner=new_owner)
        if stored_bit == "0":
            joint.left, joint.right = node, new_leaf
        else:
            joint.left, joint.right = new_leaf, node
        self._leaves[new_owner] = new_leaf
        return self._owners_under(node)

    def _complex_split_root(
        self, root: _TreeNode, index: int, new_owner: OwnerKey
    ) -> List[OwnerKey]:
        """Promote bit ``index`` of the root's pure-skip label.

        The root's current content (leaf owner or children) moves into a
        demoted child; the new leaf becomes its sibling. By convention
        the demoted child takes the stored bit value of the promoted
        position.
        """
        label = root.label
        stored_bit = label[index]
        other_bit = "1" if stored_bit == "0" else "0"
        tail = label[index + 1 :]

        demoted = _TreeNode(stored_bit + tail, parent=root, owner=root.owner)
        demoted.left, demoted.right = root.left, root.right
        for child in (demoted.left, demoted.right):
            if child is not None:
                child.parent = demoted
        if demoted.owner is not None:
            self._leaves[demoted.owner] = demoted

        new_leaf = _TreeNode(other_bit + tail, parent=root, owner=new_owner)
        root.owner = None
        root.label = label[:index]
        if stored_bit == "0":
            root.left, root.right = demoted, new_leaf
        else:
            root.left, root.right = new_leaf, demoted
        self._leaves[new_owner] = new_leaf
        return self._owners_under(demoted)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def apply_merge(self, owner: OwnerKey) -> MergeOutcome:
        """Remove ``owner``'s leaf, reassigning its coverage (paper §4.2)."""
        leaf = self._leaf(owner)
        if leaf.is_root:
            raise LastIAgentError("cannot merge the only IAgent in the system")
        parent = leaf.parent
        sibling = leaf.sibling()
        del self._leaves[owner]

        if sibling.is_leaf:
            # Simple merge (Figure 5): the parent becomes the sibling's
            # leaf; the parent's incoming label is unchanged.
            kind = "simple"
            absorbers = [sibling.owner]
            parent.owner = sibling.owner
            parent.left = parent.right = None
            self._leaves[sibling.owner] = parent
        else:
            # Complex merge (Figure 6): splice the sibling subtree into
            # the parent's position; the sibling's valid bit demotes to
            # a skipped bit of the concatenated label.
            kind = "complex"
            absorbers = self._owners_under(sibling)
            parent.label = parent.label + sibling.label
            parent.left, parent.right = sibling.left, sibling.right
            parent.left.parent = parent
            parent.right.parent = parent
            parent.owner = None
        self.version += 1
        self._compiled = None
        return MergeOutcome(
            merged_owner=owner, kind=kind, absorbers=absorbers, version=self.version
        )

    # ------------------------------------------------------------------
    # Serialization / cloning
    # ------------------------------------------------------------------

    def to_spec(self) -> Tuple:
        """A picklable nested-tuple form of the whole tree."""

        def encode(node: _TreeNode) -> Tuple:
            if node.is_leaf:
                return ("leaf", node.label, node.owner)
            return ("node", node.label, encode(node.left), encode(node.right))

        return ("tree", self.width, self.version, encode(self._root))

    @classmethod
    def from_spec(cls, spec: Tuple) -> "HashTree":
        """Rebuild a tree from :meth:`to_spec` output."""
        tag, width, version, root_spec = spec
        if tag != "tree":
            raise ValueError(f"not a tree spec: {spec!r}")
        tree = cls.__new__(cls)
        tree.width = width
        tree.version = version
        tree._leaves = {}
        tree._compiled = None

        def decode(node_spec: Tuple, parent: Optional[_TreeNode]) -> _TreeNode:
            if node_spec[0] == "leaf":
                _, label, owner = node_spec
                node = _TreeNode(label, parent=parent, owner=owner)
                tree._leaves[owner] = node
                return node
            _, label, left_spec, right_spec = node_spec
            node = _TreeNode(label, parent=parent)
            node.left = decode(left_spec, node)
            node.right = decode(right_spec, node)
            return node

        tree._root = decode(root_spec, None)
        return tree

    def clone(self) -> "HashTree":
        """An independent copy (used for secondary copies)."""
        return HashTree.from_spec(self.to_spec())

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def render(self) -> str:
        """An ASCII rendering, one node per line, for logs and docs."""
        lines: List[str] = []

        def walk(node: _TreeNode, depth: int) -> None:
            label = node.label if node.label else "(root)"
            if node.is_root and node.label:
                label = f"~{node.label}"
            tag = f" -> {node.owner}" if node.is_leaf else ""
            lines.append(f"{'  ' * depth}{label}{tag}")
            if not node.is_leaf:
                walk(node.left, depth + 1)
                walk(node.right, depth + 1)

        walk(self._root, 0)
        return "\n".join(lines)

    def statistics(self) -> Dict[str, float]:
        """Balance metrics of the current tree.

        ``min/max/mean_consumed`` are the id bits consumed reaching each
        leaf (the "prefix length" complex split aims to keep short);
        ``node_count`` counts internal nodes + leaves; ``skipped_bits``
        totals the wildcard bits across all labels (the raw material of
        complex splits).
        """
        consumed_widths = [
            self.consumed_width(owner) for owner in self._leaves
        ]
        node_count = 0
        skipped = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            node_count += 1
            if node.is_root:
                skipped += len(node.label)
            else:
                skipped += len(node.label) - 1
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return {
            "leaves": float(len(self._leaves)),
            "node_count": float(node_count),
            "min_consumed": float(min(consumed_widths)),
            "max_consumed": float(max(consumed_widths)),
            "mean_consumed": sum(consumed_widths) / len(consumed_widths),
            "skipped_bits": float(skipped),
            "version": float(self.version),
        }

    def to_dot(self, title: str = "hash-tree") -> str:
        """A Graphviz ``dot`` rendering of the tree.

        Edges are labelled with their bit strings (valid bit first),
        leaves with their owners -- paste into any dot viewer to get
        the paper's Figure-1 style picture of the current function.
        """
        lines = [f'digraph "{title}" {{', "  node [shape=circle];"]
        names: Dict[int, str] = {}

        def name_of(node: _TreeNode) -> str:
            key = id(node)
            if key not in names:
                names[key] = f"n{len(names)}"
            return names[key]

        def walk(node: _TreeNode) -> None:
            me = name_of(node)
            if node.is_leaf:
                lines.append(
                    f'  {me} [shape=box, label="{node.owner}"];'
                )
            else:
                label = f"~{node.label}" if node.is_root and node.label else ""
                lines.append(f'  {me} [label="{label}"];')
                for child in (node.left, node.right):
                    lines.append(
                        f'  {me} -> {name_of(child)} [label="{child.label}"];'
                    )
                walk(node.left)
                walk(node.right)

        walk(self._root)
        lines.append("}")
        return "\n".join(lines)

    def check_invariants(self) -> None:
        """Raise :class:`TreeInvariantError` on any structural violation."""
        seen_owners: List[OwnerKey] = []

        def walk(node: _TreeNode, consumed: int) -> None:
            if node.is_root:
                if node.parent is not None:
                    raise TreeInvariantError("root with a parent")
            else:
                if not node.label:
                    raise TreeInvariantError("non-root node with empty label")
                expected = "0" if node.parent.left is node else "1"
                if node.label[0] != expected:
                    raise TreeInvariantError(
                        f"valid bit {node.label[0]!r} on the {expected}-side"
                    )
            consumed += len(node.label)
            if consumed > self.width:
                raise TreeInvariantError(
                    f"path consumes {consumed} bits, beyond width {self.width}"
                )
            if node.is_leaf:
                if node.owner is None:
                    raise TreeInvariantError("leaf without an owner")
                if self._leaves.get(node.owner) is not node:
                    raise TreeInvariantError(
                        f"leaf index out of sync for owner {node.owner!r}"
                    )
                seen_owners.append(node.owner)
                return
            if node.owner is not None:
                raise TreeInvariantError("internal node with an owner")
            if node.left is None or node.right is None:
                raise TreeInvariantError("internal node missing a child")
            if node.left.parent is not node or node.right.parent is not node:
                raise TreeInvariantError("child with a wrong parent pointer")
            walk(node.left, consumed)
            walk(node.right, consumed)

        walk(self._root, 0)
        if len(seen_owners) != len(self._leaves):
            raise TreeInvariantError(
                f"{len(seen_owners)} leaves walked, {len(self._leaves)} indexed"
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _leaf(self, owner: OwnerKey) -> _TreeNode:
        leaf = self._leaves.get(owner)
        if leaf is None:
            raise KeyError(f"no leaf for owner {owner!r}")
        return leaf

    def _path_to(self, node: _TreeNode) -> List[_TreeNode]:
        path = []
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def _owners_under(self, node: _TreeNode) -> List[OwnerKey]:
        owners: List[OwnerKey] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                owners.append(current.owner)
            else:
                stack.extend((current.right, current.left))
        return owners

    def __iter__(self) -> Iterator[OwnerKey]:
        return iter(self._leaves)

    def __len__(self) -> int:
        return len(self._leaves)

    def __repr__(self) -> str:
        return f"HashTree(v{self.version}, {len(self._leaves)} owners)"
