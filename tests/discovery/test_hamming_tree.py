"""Property + known-case tests for the Hamming walk over the hash tree.

The hypothesis suites pin :meth:`HashTree.find_within_hamming` and
:meth:`HashTree.nearest` against brute force over randomly grown trees;
the known-tree cases mirror cutespamtk's ``find_all_hamming_distance``
doctests (query excluded, distance 1..d) through the full candidate +
exact-filter pipeline.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hash_tree import HashTree
from repro.discovery.hamming import (
    hamming_distance,
    ids_within,
    merge_matches,
    shards_within,
)
from repro.platform.naming import AgentId
from repro.service.routing import shard_of

WIDTH = 8


def grow_tree(seed: int, splits: int, width: int = WIDTH) -> HashTree:
    """A random tree grown by ``splits`` random legal splits."""
    rng = random.Random(seed)
    tree = HashTree("o0", width=width)
    owners = ["o0"]
    for i in range(1, splits + 1):
        owner = rng.choice(owners)
        candidates = tree.split_candidates(owner)
        if not candidates:
            continue
        new_owner = f"o{i}"
        tree.apply_split(rng.choice(candidates), new_owner)
        owners.append(new_owner)
    return tree


def brute_min_distances(tree: HashTree, query: AgentId, width: int = WIDTH):
    """owner -> min Hamming distance over every id in the space, through
    the string oracles (``lookup`` and ``hamming_distance``)."""
    best = {}
    for value in range(1 << width):
        bits = format(value, f"0{width}b")
        owner = tree.lookup(bits)
        dist = hamming_distance(bits, query.bits)
        if owner not in best or dist < best[owner]:
            best[owner] = dist
    return best


class TestFindWithinHamming:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        splits=st.integers(0, 25),
        query_value=st.integers(0, (1 << WIDTH) - 1),
        d=st.integers(0, 4),
    )
    def test_matches_brute_force(self, seed, splits, query_value, d):
        tree = grow_tree(seed, splits)
        query = AgentId(query_value, WIDTH)
        truth = brute_min_distances(tree, query)
        got = tree.find_within_hamming(query, d)
        assert got == {o: dist for o, dist in truth.items() if dist <= d}

    def test_zero_radius_is_exactly_the_lookup_owner(self):
        tree = grow_tree(3, 12)
        query = AgentId(0b1011_0101, WIDTH)
        assert tree.find_within_hamming(query, 0) == {tree.lookup_id(query): 0}

    def test_full_radius_is_every_owner(self):
        tree = grow_tree(5, 12)
        query = AgentId(0, WIDTH)
        found = tree.find_within_hamming(query, WIDTH)
        assert set(found) == set(tree.owners())

    def test_short_bits_rejected(self):
        tree = grow_tree(1, 4)
        try:
            tree.find_within_hamming(AgentId(0b01, 2), 1)
        except ValueError:
            pass
        else:
            raise AssertionError("short bit string accepted")

    def test_negative_radius_rejected(self):
        tree = grow_tree(1, 4)
        try:
            tree.find_within_hamming(AgentId(0, WIDTH), -1)
        except ValueError:
            pass
        else:
            raise AssertionError("negative radius accepted")


class TestNearest:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        splits=st.integers(0, 25),
        query_value=st.integers(0, (1 << WIDTH) - 1),
        k=st.integers(1, 30),
    )
    def test_best_first_matches_brute_force(self, seed, splits, query_value, k):
        tree = grow_tree(seed, splits)
        query = AgentId(query_value, WIDTH)
        truth = brute_min_distances(tree, query)
        got = tree.nearest(query, k)
        assert len(got) == min(k, tree.owner_count())
        dists = [dist for _, dist in got]
        assert dists == sorted(dists)
        assert dists == sorted(truth.values())[: len(got)]
        for owner, dist in got:
            assert truth[owner] == dist

    def test_k_zero_or_negative_is_empty(self):
        tree = grow_tree(2, 8)
        assert tree.nearest(AgentId(0, WIDTH), 0) == []
        assert tree.nearest(AgentId(0, WIDTH), -3) == []


class TestKnownTreeCases:
    """cutespamtk's doctest cases, at width 4, through the pipeline."""

    IDS = [0b0110, 0b1110, 0b1011, 0b1111]

    def _agents(self):
        return [AgentId(v, width=4) for v in self.IDS]

    def test_find_all_hamming_distance_cases(self):
        agents = self._agents()
        query = AgentId(0b1111, width=4)
        # cutespamtk: find_all_hamming_distance(0b1111, 1) = {0b1110, 0b1011}
        assert {a.value for a, _ in ids_within(agents, query, 1)} == {
            0b1110,
            0b1011,
        }
        # One more flip reaches 0b0110 (distance 2).
        assert {a.value for a, _ in ids_within(agents, query, 2)} == {
            0b1110,
            0b1011,
            0b0110,
        }
        # The query id itself is never part of the answer.
        assert all(a.value != 0b1111 for a, _ in ids_within(agents, query, 4))

    def test_distance_zero_finds_nothing(self):
        agents = self._agents()
        assert ids_within(agents, AgentId(0b1111, width=4), 0) == []

    def test_pipeline_equals_direct_scan(self):
        """Candidate walk + per-bucket exact filter == global exact filter."""
        tree = grow_tree(11, 6, width=4)
        agents = [AgentId(v, width=4) for v in range(16)]
        buckets = {}
        for agent in agents:
            buckets.setdefault(tree.lookup_id(agent), []).append(agent)
        for query in agents:
            for d in range(0, 4):
                candidates = tree.find_within_hamming(query, d)
                via_tree = []
                for owner in candidates:
                    via_tree.extend(ids_within(buckets.get(owner, []), query, d))
                via_tree.sort(key=lambda pair: (pair[1], pair[0]))
                assert via_tree == ids_within(agents, query, d)


class TestMergeMatches:
    def test_highest_seq_wins_and_sorted_by_distance(self):
        a = AgentId(3, width=4)
        b = AgentId(5, width=4)
        merged = merge_matches(
            [
                [{"agent": a, "seq": 1, "node": "n0", "distance": 2}],
                [
                    {"agent": a, "seq": 4, "node": "n1", "distance": 2},
                    {"agent": b, "seq": 0, "node": "n2", "distance": 1},
                ],
            ]
        )
        assert [m["agent"] for m in merged] == [b, a]
        assert merged[1]["node"] == "n1"  # seq 4 beat seq 1


class TestShardsWithin:
    def test_single_shard(self):
        assert shards_within(AgentId(0b1010, 4), 0, 1) == [0]

    def test_radius_zero_is_just_the_home_shard(self):
        assert shards_within(AgentId(0b10 << 6, 8), 0, 4) == [0b10]

    def test_ball_spans_adjacent_prefixes(self):
        assert shards_within(AgentId(0b10 << 6, 8), 1, 4) == [0b00, 0b10, 0b11]

    def test_large_radius_is_every_shard(self):
        assert shards_within(AgentId(0, 8), 8, 4) == [0, 1, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 16),
        value=st.integers(0, (1 << 16) - 1),
        d=st.integers(0, 7),
        shards=st.sampled_from([1 << k for k in range(7)]),
    )
    @example(width=1, value=1, d=0, shards=4)  # narrower than the prefix
    def test_is_every_shard_within_d_of_shard_of(self, width, value, d, shards):
        """Total over id widths: the query's prefix is ``shard_of``'s,
        zero padded when the id is narrower than the prefix."""
        agent = AgentId(value & ((1 << width) - 1), width)
        home = shard_of(agent, shards)
        assert shards_within(agent, d, shards) == [
            shard for shard in range(shards) if bin(shard ^ home).count("1") <= d
        ]

    def test_non_power_of_two_rejected(self):
        try:
            shards_within(AgentId(0, 4), 1, 3)
        except ValueError:
            pass
        else:
            raise AssertionError("non-power-of-two shard count accepted")
