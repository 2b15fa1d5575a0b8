"""Unit and property tests for the pure replication logic.

:mod:`repro.service.replication` is deliberately I/O-free so these
tests can drive arbitrary crash/promotion interleavings through the
epoch fence and failure detector without booting a single socket.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.replication import (
    EpochFence,
    FailureDetector,
    next_epoch,
    single_primary_violations,
)


class TestNextEpoch:
    def test_strictly_above_everything_seen(self):
        assert next_epoch(1, 5, 3) == 6
        assert next_epoch(7) == 8

    def test_empty_history_claims_one(self):
        assert next_epoch() == 1

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=20))
    def test_always_strictly_monotonic(self, seen):
        claimed = next_epoch(*seen)
        assert all(claimed > epoch for epoch in seen)


class TestEpochFence:
    def test_advancing_epoch_is_admitted(self):
        fence = EpochFence()
        decision = fence.admit(1, "hagent-0")
        assert decision.admitted
        assert fence.epoch == 1

    def test_lower_epoch_is_stale(self):
        fence = EpochFence()
        fence.admit(3, "hagent-1")
        decision = fence.admit(2, "hagent-0")
        assert not decision.admitted
        assert "stale-epoch" in decision.reason
        assert fence.epoch == 3

    def test_same_epoch_same_claimant_is_admitted(self):
        fence = EpochFence()
        fence.admit(2, "hagent-1")
        assert fence.admit(2, "hagent-1").admitted

    def test_same_epoch_different_claimant_is_rejected(self):
        """Two replicas racing to the same epoch: first claimant wins."""
        fence = EpochFence()
        fence.admit(2, "hagent-1")
        decision = fence.admit(2, "hagent-2")
        assert not decision.admitted
        assert "already claimed" in decision.reason

    def test_unattributed_op_at_current_epoch_is_admitted(self):
        fence = EpochFence()
        fence.admit(2, "hagent-1")
        assert fence.admit(2, None).admitted

    def test_unattributed_claim_then_attributed_one(self):
        """An epoch first seen without a claimant adopts the next one."""
        fence = EpochFence()
        fence.admit(2, None)
        assert fence.admit(2, "hagent-1").admitted
        assert not fence.admit(2, "hagent-2").admitted

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.sampled_from(["hagent-0", "hagent-1", "hagent-2"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_at_most_one_claimant_serializes_per_epoch(self, attempts):
        """The fence's core guarantee under arbitrary interleavings:
        however promotions race, the set of (epoch, claimant) pairs a
        node ever admits contains no epoch with two claimants."""
        fence = EpochFence()
        admitted = []
        for epoch, claimant in attempts:
            if fence.admit(epoch, claimant).admitted:
                admitted.append((epoch, claimant))
        assert single_primary_violations(admitted) == []

    @given(
        st.lists(
            st.integers(min_value=0, max_value=10),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_high_water_mark_never_regresses(self, epochs):
        fence = EpochFence()
        high = 0
        for epoch in epochs:
            fence.admit(epoch, "hagent-1")
            high = max(high, epoch)
            assert fence.epoch == high


class TestPromotionInterleavings:
    """Promotions modelled through the pure logic: every replica claims
    ``next_epoch`` over everything it has witnessed, and a shared fence
    arbitrates. Whatever the interleaving, claims admitted at the fence
    are strictly monotonic and never doubly held."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # which replica acts
                st.booleans(),  # True = promote, False = sync from winner
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_admitted_epochs_strictly_increase(self, script):
        witnessed = [0, 0, 0]
        fence = EpochFence()
        admitted = []
        last_admitted = 0
        for replica, promote in script:
            if promote:
                claimed = next_epoch(witnessed[replica])
                decision = fence.admit(claimed, f"hagent-{replica}")
                witnessed[replica] = max(witnessed[replica], fence.epoch)
                if decision.admitted:
                    assert claimed > last_admitted or (
                        claimed == last_admitted
                        and admitted
                        and admitted[-1][1] == f"hagent-{replica}"
                    )
                    admitted.append((claimed, f"hagent-{replica}"))
                    last_admitted = claimed
            else:
                # Sync: learn the fence's (cluster's) high-water epoch.
                witnessed[replica] = max(witnessed[replica], fence.epoch)
        assert single_primary_violations(admitted) == []

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_synced_replica_never_claims_a_spent_epoch(self, data):
        """A replica that has witnessed epoch E always claims above E --
        the property that makes journal entries from different primaries
        impossible to confuse."""
        history = data.draw(
            st.lists(st.integers(min_value=1, max_value=50), max_size=20)
        )
        witnessed = 0
        for epoch in history:
            witnessed = max(witnessed, epoch)
        assert next_epoch(witnessed) > witnessed


class TestFailureDetector:
    def test_rank_zero_is_rejected(self):
        with pytest.raises(ValueError):
            FailureDetector(rank=0, heartbeat_timeout=1.0)

    def test_non_positive_timeout_is_rejected(self):
        with pytest.raises(ValueError):
            FailureDetector(rank=1, heartbeat_timeout=0.0)

    def test_no_observations_never_promotes(self):
        detector = FailureDetector(rank=1, heartbeat_timeout=1.0)
        assert not detector.should_promote(10_000.0)

    def test_silence_after_last_ok_promotes(self):
        detector = FailureDetector(rank=1, heartbeat_timeout=1.0)
        detector.record_ok(10.0)
        assert not detector.should_promote(10.9)
        assert detector.should_promote(11.0)

    def test_rank_stagger_delays_higher_ranks(self):
        first = FailureDetector(
            rank=1, heartbeat_timeout=1.0, promotion_stagger=0.5
        )
        second = FailureDetector(
            rank=2, heartbeat_timeout=1.0, promotion_stagger=0.5
        )
        first.record_ok(0.0)
        second.record_ok(0.0)
        assert first.should_promote(1.0)
        assert not second.should_promote(1.0)
        assert second.should_promote(1.5)

    def test_fast_fail_on_consecutive_refusals(self):
        detector = FailureDetector(
            rank=1, heartbeat_timeout=10.0
        )
        detector.record_ok(0.0)
        for t in (0.1, 0.2):
            detector.record_failure(t, refused=True)
            assert not detector.should_promote(t)
        detector.record_failure(0.3, refused=True)
        assert detector.should_promote(0.3)

    def test_non_refused_failure_resets_the_streak(self):
        """A hang (partition) is not positive evidence of death: only an
        unbroken run of connection-refused failures fast-fails."""
        detector = FailureDetector(
            rank=1, heartbeat_timeout=10.0
        )
        detector.record_ok(0.0)
        detector.record_failure(0.1, refused=True)
        detector.record_failure(0.2, refused=True)
        detector.record_failure(0.3, refused=False)
        detector.record_failure(0.4, refused=True)
        detector.record_failure(0.5, refused=True)
        assert not detector.should_promote(0.5)
        detector.record_failure(0.6, refused=True)
        assert detector.should_promote(0.6)

    def test_success_resets_everything(self):
        detector = FailureDetector(
            rank=1, heartbeat_timeout=1.0
        )
        for t in (0.1, 0.2, 0.3):
            detector.record_failure(t, refused=True)
        detector.record_ok(0.4)
        assert not detector.should_promote(1.0)
        assert detector.consecutive_refused == 0

    def test_silence_anchored_to_first_failure_without_any_ok(self):
        """A standby that never reached the primary still promotes
        eventually -- measured from its first failed attempt."""
        detector = FailureDetector(rank=1, heartbeat_timeout=1.0)
        detector.record_failure(5.0)
        assert not detector.should_promote(5.9)
        assert detector.should_promote(6.0)

    def test_higher_rank_needs_a_longer_refusal_streak(self):
        second = FailureDetector(
            rank=2, heartbeat_timeout=10.0
        )
        for index in range(5):
            second.record_failure(0.1 * index, refused=True)
        assert not second.should_promote(0.5)
        second.record_failure(0.6, refused=True)
        assert second.should_promote(0.6)


class TestSinglePrimaryViolations:
    def test_clean_history_has_no_violations(self):
        claims = [(1, "hagent-0"), (2, "hagent-1"), (3, "hagent-0")]
        assert single_primary_violations(claims) == []

    def test_duplicate_claim_by_same_replica_is_fine(self):
        claims = [(1, "hagent-0"), (1, "hagent-0")]
        assert single_primary_violations(claims) == []

    def test_two_holders_of_one_epoch_is_reported(self):
        claims = [(1, "hagent-0"), (2, "hagent-1"), (2, "hagent-2")]
        violations = single_primary_violations(claims)
        assert violations == [(2, ("hagent-1", "hagent-2"))]

    def test_violations_sorted_by_epoch(self):
        claims = [
            (5, "a"), (5, "b"),
            (2, "a"), (2, "c"),
        ]
        epochs = [epoch for epoch, _ in single_primary_violations(claims)]
        assert epochs == [2, 5]
