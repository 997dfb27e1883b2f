"""Late windows: an idle front re-runs a window another front has not landed.

Once nothing is left to claim, :meth:`FrontLedger.claim_late` hands a
worker the top-most window of another front that has not landed yet.
Whichever shipment lands first covers the window and is credited with it;
the committed frontier advances over the window at that moment and never
moves back up.
"""

from repro.core.deviceset import FrontLedger


def _span(window):
    return (window.start, window.end)


class TestWhenLateWindowsAreGiven:
    def test_none_while_groups_are_still_claimable(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 30)  # [70, 100), not landed
        assert ledger.claim_late(2) is None
        ledger.claim(1, 70)  # [0, 70): the floor is drained
        late = ledger.claim_late(2)
        assert _span(late) == (70, 100) and late.redo

    def test_none_during_failover(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 50)  # [50, 100)
        ledger.claim(2, 50)  # [0, 50)
        ledger.enter_failover(1)
        assert ledger.claim_late(2) is None  # not the leader
        assert ledger.claim_late(1) is None  # redo spans remain
        while ledger.claim(1, 20) is not None:
            pass
        assert ledger.claim_late(1) is None  # drained, still failover
        assert ledger.claim_late(3) is None

    def test_a_front_is_never_given_its_own_window(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 50)  # [50, 100)
        ledger.claim(1, 50)  # [0, 50)
        assert ledger.claim_late(1) is None
        assert _span(ledger.claim_late(2)) == (50, 100)

    def test_top_most_unlanded_window_first(self):
        ledger = FrontLedger(total=90)
        ledger.claim(1, 30)  # [60, 90)
        ledger.claim(2, 30)  # [30, 60)
        ledger.claim(1, 30)  # [0, 30)
        ledger.mark_landed(1, 1)  # [60, 90) landed
        assert _span(ledger.claim_late(3)) == (30, 60)
        assert _span(ledger.claim_late(3)) == (0, 30)
        assert ledger.claim_late(3) is None

    def test_a_lost_fronts_window_is_given_too(self):
        """The ledger does not know about loss: an unlanded window of a
        dead front stays unlanded, so an idle front re-runs it."""
        ledger = FrontLedger(total=64)
        ledger.claim(1, 14)  # [50, 64): its front dies under it
        ledger.claim(2, 50)  # [0, 50)
        ledger.mark_landed(2, 1)
        assert _span(ledger.claim_late(2)) == (50, 64)


class TestRerunsPerFront:
    def test_at_most_once_per_front_and_shared_across_fronts(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 40)  # [60, 100)
        ledger.claim(1, 60)  # [0, 60)
        assert _span(ledger.claim_late(2)) == (60, 100)
        assert _span(ledger.claim_late(2)) == (0, 60)
        assert ledger.claim_late(2) is None  # each re-run at most once
        # another front may re-run the same (still unlanded) windows
        assert _span(ledger.claim_late(3)) == (60, 100)
        assert _span(ledger.claim_late(3)) == (0, 60)
        assert ledger.claim_late(3) is None

    def test_reruns_are_not_claims(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 50)  # [50, 100)
        ledger.claim(2, 50)  # [0, 50)
        ledger.claim_late(2)  # re-runs [50, 100)
        assert ledger.groups_for(2) == 50
        assert ledger.remaining_for(2) == 0
        # failover redoes the claims of other fronts, not their re-runs
        ledger.enter_failover(1)
        assert ledger.redo_spans == [(0, 50)]


class TestFirstLandingWins:
    def test_first_landing_covers_the_window_and_credits_its_front(self):
        ledger = FrontLedger(total=100)
        slow = ledger.claim(1, 50)  # [50, 100)
        ledger.claim(2, 50)  # [0, 50)
        ledger.mark_landed(2, ledger.shipment_mark(2))
        assert ledger.committed_frontier() == 100  # stalled on the top
        rerun = ledger.claim_late(2)
        assert not ledger.covered(slow) and not ledger.covered(rerun)
        ledger.mark_landed(2, ledger.shipment_mark(2))
        assert ledger.covered(slow) and ledger.covered(rerun)
        assert ledger.committed_frontier() == 0
        assert ledger.credited_above(0, 0) == [2]
        assert ledger.sole_contributor() == 2
        # the claimant's copy lands later: the credit stays put
        ledger.mark_landed(1, ledger.shipment_mark(1))
        assert ledger.credited_above(0, 0) == [2]
        assert ledger.sole_contributor() == 2

    def test_a_rerun_that_loses_the_race_credits_nothing(self):
        """Front 1 claimed the whole range and lands first: its commit
        stays front-complete, not a merge with front 2's re-run."""
        ledger = FrontLedger(total=100)
        ledger.claim(1, 100)  # [0, 100)
        rerun = ledger.claim_late(2)
        ledger.mark_landed(1, ledger.shipment_mark(1))
        assert ledger.covered(rerun)
        ledger.mark_landed(2, ledger.shipment_mark(2))
        assert ledger.credited_above(0, 0) == [1]
        assert ledger.sole_contributor() == 1

    def test_committed_frontier_never_moves_back_up(self):
        ledger = FrontLedger(total=100)
        ledger.claim(1, 30)  # [70, 100)
        ledger.claim(2, 30)  # [40, 70)
        ledger.claim(3, 40)  # [0, 40)
        ledger.mark_landed(3, 1)
        ledger.mark_landed(2, 1)
        assert ledger.committed_frontier() == 100
        ledger.claim_late(3)  # re-runs [70, 100)
        ledger.claim_late(2)  # re-runs it as well
        ledger.mark_landed(3, ledger.shipment_mark(3))
        seen = [ledger.committed_frontier()]
        ledger.mark_landed(2, ledger.shipment_mark(2))
        seen.append(ledger.committed_frontier())
        ledger.mark_landed(1, 1)
        seen.append(ledger.committed_frontier())
        assert seen == [0, 0, 0]
        assert ledger.credited_above(0, 0) == [2, 3]
