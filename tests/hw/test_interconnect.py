"""Unit tests for the interconnect model."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.interconnect import InterconnectSpec
from repro.hw.specs import HOST_DDR3, PCIE_GEN2_X16


class TestInterconnect:
    def test_transfer_time_formula(self):
        link = InterconnectSpec("test", latency=1e-5, bandwidth=1e9)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-5)

    def test_zero_bytes_costs_latency(self):
        assert PCIE_GEN2_X16.transfer_time(0) == PCIE_GEN2_X16.latency

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIE_GEN2_X16.transfer_time(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterconnectSpec("bad", latency=-1, bandwidth=1e9)
        with pytest.raises(ValueError):
            InterconnectSpec("bad", latency=0, bandwidth=0)

    def test_host_link_faster_for_small_transfers(self):
        assert HOST_DDR3.transfer_time(4096) < PCIE_GEN2_X16.transfer_time(4096)

    @given(nbytes=st.floats(0, 1e12))
    def test_monotone_in_bytes(self, nbytes):
        assert (
            PCIE_GEN2_X16.transfer_time(nbytes + 1)
            > PCIE_GEN2_X16.transfer_time(nbytes)
        )
