"""Unit tests for the mechanism configuration."""

import pytest

from repro.core.config import HashMechanismConfig
from repro.service.coordinator import HAgentServer
from repro.service.server import ServiceConfig

from tests.conftest import build_runtime, install_hash_mechanism


class TestValidation:
    def test_defaults_validate(self) -> None:
        HashMechanismConfig().validate()

    def test_tmax_must_exceed_tmin(self) -> None:
        with pytest.raises(ValueError):
            HashMechanismConfig(t_max=5.0, t_min=5.0).validate()

    def test_scope_checked(self) -> None:
        with pytest.raises(ValueError):
            HashMechanismConfig(complex_split_scope="everything").validate()

    def test_windows_positive(self) -> None:
        with pytest.raises(ValueError):
            HashMechanismConfig(rate_window=0).validate()
        with pytest.raises(ValueError):
            HashMechanismConfig(report_interval=0).validate()


class TestCoordinatorsValidate:
    """Both coordinators build a ``RehashPolicy``, which validates."""

    INVERTED = HashMechanismConfig(t_max=1.0, t_min=5.0)

    def test_live_coordinator_rejects_inverted_thresholds(self) -> None:
        with pytest.raises(ValueError, match="must exceed"):
            HAgentServer(ServiceConfig(mechanism=self.INVERTED))

    def test_simulator_rejects_inverted_thresholds(self) -> None:
        with pytest.raises(ValueError, match="must exceed"):
            install_hash_mechanism(build_runtime(), t_max=1.0, t_min=5.0)


class TestOverrides:
    def test_with_overrides_returns_new_instance(self) -> None:
        base = HashMechanismConfig()
        tuned = base.with_overrides(t_max=99.0)
        assert tuned.t_max == 99.0
        assert base.t_max == 50.0
        assert tuned is not base

    def test_frozen(self) -> None:
        with pytest.raises(Exception):
            HashMechanismConfig().t_max = 1.0

    def test_paper_defaults(self) -> None:
        """The reconstructed §5 parameters are the defaults."""
        config = HashMechanismConfig()
        assert config.t_max == 50.0
        assert config.t_min == 5.0
