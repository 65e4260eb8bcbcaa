"""Unit tests for the stream profile and transforms."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.smartpointer import FULL_QUALITY, StreamProfile, Transform
from repro.units import KB


@pytest.fixture
def profile():
    return StreamProfile(base_size=KB(200), base_client_cost=2.4,
                         server_preprocess_cost=2.0)


class TestStreamProfile:
    def test_validation(self):
        with pytest.raises(SimulationError):
            StreamProfile(base_size=0, base_client_cost=1)
        with pytest.raises(SimulationError):
            StreamProfile(base_size=1, base_client_cost=-1)


class TestTransformModel:
    def test_identity_changes_nothing(self, profile):
        assert FULL_QUALITY.wire_size(profile) == profile.base_size
        assert FULL_QUALITY.client_cost(profile) \
            == profile.base_client_cost
        assert FULL_QUALITY.server_cost(profile) == 0.0
        assert FULL_QUALITY.quality() == 1.0

    def test_downsample_shrinks_wire_but_raises_client_cost(self,
                                                            profile):
        """The paper's Figure 11 coupling: downsampling helps the
        network and hurts the client CPU."""
        t = Transform(downsample=0.25)
        assert t.wire_size(profile) < profile.base_size
        assert t.client_cost(profile) > profile.base_client_cost

    def test_preprocess_relieves_client_but_inflates_wire(self, profile):
        """Pre-processing helps the client CPU and hurts the network
        (and downstream disk)."""
        t = Transform(preprocess=1.0)
        assert t.client_cost(profile) < profile.base_client_cost
        assert t.wire_size(profile) > profile.base_size
        assert t.server_cost(profile) == profile.server_preprocess_cost

    def test_quality_ordering(self):
        assert Transform(downsample=1.0).quality() \
            > Transform(downsample=0.5).quality() \
            > Transform(downsample=0.25).quality()
        assert Transform(preprocess=0.0).quality() \
            > Transform(preprocess=1.0).quality()

    def test_validation(self):
        with pytest.raises(SimulationError):
            Transform(downsample=0.0)
        with pytest.raises(SimulationError):
            Transform(downsample=1.5)
        with pytest.raises(SimulationError):
            Transform(preprocess=-0.1)
