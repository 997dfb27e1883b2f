"""Device-set fronts and the shared claim ledger.

The :class:`~repro.core.deviceset.FrontLedger` is the single source of
truth for span ownership in an N-device set: every flattened group ID is
claimed by exactly one worker window, claims descend contiguously from
the top, and the committed frontier only advances over the contiguous
landed suffix.  These are the invariants the whole merge/credit protocol
rests on, so they get direct unit coverage plus property tests — and the
runtime-level partition check runs on every set width from one device to
four.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deviceset import DeviceSet, FrontLedger
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import MACHINE_PRESETS, build_machine
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_scale_kernel


class TestFrontLedgerClaims:
    def test_claims_descend_contiguously(self):
        ledger = FrontLedger(total=100)
        w1 = ledger.claim(1, 30)
        assert (w1.start, w1.end) == (70, 100)
        w2 = ledger.claim(2, 30)
        assert (w2.start, w2.end) == (40, 70)
        # an oversized chunk is clipped to the remaining floor
        w3 = ledger.claim(1, 99)
        assert (w3.start, w3.end) == (0, 40)
        assert ledger.claim(2, 10) is None

    def test_chunk_must_be_positive(self):
        ledger = FrontLedger(total=10)
        with pytest.raises(ValueError):
            ledger.claim(1, 0)

    def test_groups_for_sums_each_fronts_claims(self):
        ledger = FrontLedger(total=100)
        ledger.claim(2, 10)
        ledger.claim(1, 10)
        ledger.claim(2, 10)
        assert ledger.groups_for(2) == 20
        assert ledger.groups_for(1) == 10
        assert ledger.groups_for(3) == 0


class TestCommittedFrontier:
    def test_advances_only_over_contiguous_landed_suffix(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 20)  # window 0: [80, 100)
        ledger.claim(2, 20)  # window 1: [60, 80)
        ledger.claim(1, 20)  # window 2: [40, 60)
        assert ledger.committed_frontier() == 100
        # the second window lands first: no contiguous suffix yet
        ledger.mark_landed(2, 1)
        assert ledger.committed_frontier() == 100
        # the top window lands: suffix now covers [60, 100)
        ledger.mark_landed(1, 1)
        assert ledger.committed_frontier() == 60
        ledger.mark_landed(1, 2)
        assert ledger.committed_frontier() == 40

    def test_single_worker_degenerates_to_classic_frontier(self):
        """With one worker the ledger must be the classic shrinking
        window, event for event: frontier == start of the last shipped
        window, ending at 0 with the worker as sole contributor."""
        ledger = FrontLedger(total=64)
        while True:
            window = ledger.claim(1, 10)
            if window is None:
                break
            ledger.mark_landed(1, ledger.shipment_mark(1))
            assert ledger.committed_frontier() == window.start
        assert ledger.committed_frontier() == 0
        assert ledger.sole_contributor() == 1

    def test_sole_contributor_requires_full_single_owner_range(self):
        partial = FrontLedger(total=64)
        partial.claim(1, 10)
        assert partial.sole_contributor() is None  # floor not drained
        shared = FrontLedger(total=64)
        shared.claim(1, 32)
        shared.claim(2, 32)
        assert shared.sole_contributor() is None  # two owners


class TestCreditedContributors:
    def test_windows_below_the_frontier_are_not_credited(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 20)  # [80, 100)
        ledger.claim(2, 20)  # [60, 80)
        assert ledger.credited_above(100, 0) == []
        assert ledger.credited_above(80, 0) == [1]
        assert ledger.credited_above(60, 0) == [1, 2]

    def test_windows_at_or_below_the_anchor_top_are_not_merged(self):
        """A window that ends at or below the anchor's executed top holds
        only groups the anchor computed itself; one that reaches above
        it must still be merged."""
        ledger = FrontLedger(total=100)
        ledger.claim(1, 20)  # [80, 100)
        ledger.claim(2, 20)  # [60, 80)
        assert ledger.credited_above(60, 70) == [1, 2]
        assert ledger.credited_above(60, 80) == [1]
        assert ledger.credited_above(60, 99) == [1]
        assert ledger.credited_above(60, 100) == []


class TestFailover:
    def test_redo_spans_cover_exactly_the_foreign_windows(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 20)  # [80, 100)
        ledger.claim(2, 20)  # [60, 80)
        ledger.claim(1, 10)  # [50, 60)
        ledger.enter_failover(1)
        assert ledger.redo_spans == [(60, 80)]
        assert ledger.remaining_for(1) == 50 + 20
        assert ledger.remaining_for(2) == 0

    def test_leader_drains_floor_then_redo_spans_top_first(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 20)  # [80, 100)
        ledger.claim(2, 20)  # [60, 80)
        ledger.enter_failover(1)
        floor = ledger.claim(1, 100)
        assert (floor.start, floor.end, floor.redo) == (0, 60, False)
        redo_hi = ledger.claim(1, 15)
        assert (redo_hi.start, redo_hi.end, redo_hi.redo) == (65, 80, True)
        redo_lo = ledger.claim(1, 15)
        assert (redo_lo.start, redo_lo.end, redo_lo.redo) == (60, 65, True)
        assert ledger.claim(1, 5) is None

    def test_adjacent_foreign_windows_coalesce(self):
        ledger = FrontLedger(total=100)
        ledger.claim(2, 20)  # [80, 100)
        ledger.claim(3, 20)  # [60, 80)
        ledger.claim(1, 20)  # [40, 60)
        ledger.claim(2, 20)  # [20, 40)
        ledger.enter_failover(1)
        assert ledger.redo_spans == [(20, 40), (60, 100)]


# -- partition properties ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=400),
    workers=st.integers(min_value=1, max_value=3),
    chunks=st.lists(st.integers(min_value=1, max_value=37),
                    min_size=1, max_size=40),
)
def test_interleaved_claims_partition_the_range(total, workers, chunks):
    """However worker claims interleave, the windows partition [0, total):
    every flattened group ID is claimed exactly once, no gaps, no overlap."""
    ledger = FrontLedger(total=total)
    windows = []
    i = 0
    while True:
        window = ledger.claim(1 + (i % workers), chunks[i % len(chunks)])
        i += 1
        if window is None:
            break
        windows.append(window)
    spans = sorted((w.start, w.end) for w in windows)
    assert spans[0][0] == 0
    assert spans[-1][1] == total
    for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
        assert e0 == s1


@settings(max_examples=40, deadline=None)
@given(
    total=st.integers(min_value=2, max_value=300),
    chunks=st.lists(st.integers(min_value=1, max_value=29),
                    min_size=1, max_size=30),
    leader=st.integers(min_value=1, max_value=3),
)
def test_failover_redo_reunites_the_range_on_the_leader(total, chunks, leader):
    """After failover the leader's own windows plus its redo claims cover
    every group any other front owned — nothing is orphaned or doubled."""
    ledger = FrontLedger(total=total)
    i = 0
    while ledger.claim_floor > total // 2:
        if ledger.claim(1 + (i % 3), chunks[i % len(chunks)]) is None:
            break
        i += 1
    ledger.enter_failover(leader)
    while ledger.claim(leader, 13) is not None:
        pass
    covered = sorted((w.start, w.end) for w in ledger.windows
                     if w.front == leader)
    assert covered[0][0] == 0
    assert covered[-1][1] == total
    for (_s0, e0), (s1, _e1) in zip(covered, covered[1:]):
        assert e0 == s1


# -- DeviceSet seating ---------------------------------------------------------

class TestDeviceSet:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            DeviceSet([])

    def test_anchor_workers_and_lookup(self):
        machine = build_machine(preset="cpu+2gpu")
        platform = Platform(machine)
        dset = DeviceSet(platform.devices)
        assert len(dset) == 3
        assert dset.anchor.is_anchor
        assert [f.index for f in dset.workers] == [1, 2]
        assert dset.front_by_name("Xeon W3550").index == 2
        with pytest.raises(LookupError):
            dset.front_by_name("no such device")
        assert len(dset.survivors()) == 3


# -- runtime-level partition over 1..4-device sets -----------------------------

N = 2048
LOCAL = 16
ALPHA = 3.0

#: prefixes of the widest stock preset: anchor-only, the classic pair
#: shape (anchor + one worker), and three- and four-device sets
_WIDTHS = [1, 2, 3, 4]


@pytest.mark.parametrize("width", _WIDTHS)
def test_every_set_width_partitions_and_computes_correctly(width):
    devices = list(MACHINE_PRESETS["cpu+3gpu"])[:width]
    machine = build_machine(devices=devices)
    runtime = FluidiCLRuntime(machine)
    spec = make_scale_kernel(N, LOCAL, gpu_eff=0.5, cpu_eff=0.5,
                             work_scale=32.0)
    x = np.arange(N, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (N,), np.float32)
    buf_y = runtime.create_buffer("y", (N,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    record = runtime.enqueue_nd_range_kernel(
        spec, NDRange(N, LOCAL), {"x": buf_x, "y": buf_y, "alpha": ALPHA}
    )
    y = np.zeros(N, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_y, y)
    runtime.finish()
    runtime.drain()
    np.testing.assert_allclose(y, ALPHA * x, rtol=1e-6)
    # credit partition: anchor + credited worker groups == the full range
    assert record.total_groups == N // LOCAL
    assert record.gpu_groups + record.cpu_groups == record.total_groups
    # executed front groups are tracked per worker device
    assert sum(record.front_groups.values()) >= record.cpu_groups
    if width == 1:
        assert record.cpu_groups == 0 and record.front_groups == {}


def test_preset_runs_match_device_list_runs():
    """build_machine(preset=...) is pure sugar for the explicit device
    list: same devices, same deterministic simulated time."""
    for preset, devices in MACHINE_PRESETS.items():
        via_preset = build_machine(preset=preset)
        via_list = build_machine(devices=list(devices))
        assert ([s.name for s, _l in via_preset.devices]
                == [s.name for s, _l in via_list.devices])
