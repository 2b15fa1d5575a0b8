"""Property tests for the client's adaptive timeout.

:class:`RttEstimator` is a pure state machine -- no sockets, no clock
of its own -- so hypothesis can pin its invariants exactly: its state
is a function of its samples alone and its outputs never leave
``[floor, cap]``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.client import RttEstimator

rtt_samples = st.lists(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False),
    max_size=60,
)


class TestRttEstimator:
    def test_cap_until_first_sample(self):
        estimator = RttEstimator(floor=0.25, cap=2.0)
        assert estimator.timeout() == 2.0
        assert estimator.hedge_delay() == 2.0

    def test_converges_onto_a_constant_rtt(self):
        estimator = RttEstimator(floor=0.25, cap=2.0)
        for _ in range(100):
            estimator.observe(0.1)
        assert abs(estimator.srtt - 0.1) < 0.01
        assert estimator.rttvar < 0.01
        # srtt + 4 * rttvar sits under the floor: the clamp holds.
        assert estimator.timeout() == 0.25

    def test_negative_samples_are_clamped(self):
        estimator = RttEstimator()
        estimator.observe(-5.0)
        assert estimator.srtt == 0.0

    @settings(max_examples=60, deadline=None)
    @given(rtt_samples)
    def test_outputs_stay_within_bounds(self, samples):
        estimator = RttEstimator(floor=0.25, cap=2.0)
        for sample in samples:
            estimator.observe(sample)
            assert 0.25 <= estimator.timeout() <= 2.0
            assert 0.0 <= estimator.hedge_delay() <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(rtt_samples)
    def test_state_is_a_function_of_the_samples(self, samples):
        first, second = RttEstimator(), RttEstimator()
        for sample in samples:
            first.observe(sample)
        for sample in samples:
            second.observe(sample)
        assert (first.srtt, first.rttvar, first.samples) == (
            second.srtt,
            second.rttvar,
            second.samples,
        )
        assert first.timeout() == second.timeout()
        assert first.hedge_delay() == second.hedge_delay()

    @settings(max_examples=60, deadline=None)
    @given(rtt_samples)
    def test_hedge_fires_no_later_than_the_timeout_would(self, samples):
        # Pre-clamp, srtt + 2 * rttvar <= srtt + 4 * rttvar; both share
        # the cap, so a hedge never waits past the retransmit point.
        estimator = RttEstimator(floor=0.0, cap=60.0)
        for sample in samples:
            estimator.observe(sample)
        if estimator.samples:
            assert estimator.hedge_delay() <= estimator.timeout() + 1e-12

