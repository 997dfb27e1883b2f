"""Unit tests for resources and channels."""

import pytest

from repro.sim.core import SimError
from repro.sim.resources import Channel, Resource


def worker(engine, resource, log, name, duration):
    request = resource.request()
    yield request
    log.append((engine.now, name, "start"))
    yield engine.timeout(duration)
    resource.release(request)
    log.append((engine.now, name, "end"))


class TestResource:
    def test_capacity_one_serializes(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        engine.process(worker(engine, resource, log, "a", 2))
        engine.process(worker(engine, resource, log, "b", 3))
        engine.run()
        assert log == [
            (0, "a", "start"), (2, "a", "end"),
            (2, "b", "start"), (5, "b", "end"),
        ]

    def test_capacity_two_overlaps(self, engine):
        resource = Resource(engine, capacity=2)
        log = []
        engine.process(worker(engine, resource, log, "a", 2))
        engine.process(worker(engine, resource, log, "b", 3))
        engine.run()
        assert (0, "b", "start") in log
        assert engine.now == 3

    def test_fifo_grant_order(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        for name in "abc":
            engine.process(worker(engine, resource, log, name, 1))
        engine.run()
        starts = [entry[1] for entry in log if entry[2] == "start"]
        assert starts == ["a", "b", "c"]

    def test_counters(self, engine):
        resource = Resource(engine, capacity=1)
        first = resource.request()
        second = resource.request()
        assert resource.in_use == 1
        assert resource.queue_length == 1
        resource.release(first)
        assert second.triggered

    def test_release_ungranted_request_cancels(self, engine):
        resource = Resource(engine, capacity=1)
        first = resource.request()
        second = resource.request()
        resource.release(second)  # never granted: just cancelled
        assert resource.queue_length == 0
        resource.release(first)
        assert resource.in_use == 0

    def test_release_unknown_raises(self, engine):
        r1 = Resource(engine, capacity=1)
        r2 = Resource(engine, capacity=1)
        request = r1.request()
        with pytest.raises(SimError):
            r2.release(request)

    def test_bad_capacity(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)


class TestChannel:
    def test_put_then_get(self, engine):
        channel = Channel(engine)
        channel.put("x")
        assert engine.run(channel.get()) == "x"

    def test_get_blocks_until_put(self, engine):
        channel = Channel(engine)
        results = []

        def consumer():
            item = yield channel.get()
            results.append((engine.now, item))

        engine.process(consumer())

        def producer():
            yield engine.timeout(2)
            channel.put("late")

        engine.process(producer())
        engine.run()
        assert results == [(2, "late")]

    def test_fifo_ordering(self, engine):
        channel = Channel(engine)
        for item in (1, 2, 3):
            channel.put(item)
        got = [engine.run(channel.get()) for _ in range(3)]
        assert got == [1, 2, 3]

    def test_len(self, engine):
        channel = Channel(engine)
        assert len(channel) == 0
        channel.put("a")
        assert len(channel) == 1

    def test_close_releases_waiters_with_none(self, engine):
        channel = Channel(engine)
        get_event = channel.get()
        channel.close()
        assert engine.run(get_event) is None

    def test_get_after_close_returns_none(self, engine):
        channel = Channel(engine)
        channel.close()
        assert engine.run(channel.get()) is None

    def test_put_after_close_raises(self, engine):
        channel = Channel(engine)
        channel.close()
        with pytest.raises(SimError):
            channel.put("x")

    def test_double_close_is_noop(self, engine):
        channel = Channel(engine)
        channel.close()
        channel.close()
        assert channel.closed

    def test_default_close_is_ambiguous_with_queued_none(self, engine):
        """The documented default: a queued ``None`` payload and the close
        resolution are indistinguishable (existing callers rely on it)."""
        channel = Channel(engine)
        channel.put(None)
        queued = engine.run(channel.get())
        channel.close()
        closed = engine.run(channel.get())
        assert queued is None and closed is None  # can't tell them apart

    def test_closed_sentinel_distinguishes_shutdown_from_payload(self, engine):
        channel = Channel(engine, close_value=Channel.CLOSED)
        channel.put(None)  # a legitimate None payload
        assert engine.run(channel.get()) is None
        channel.close()
        assert engine.run(channel.get()) is Channel.CLOSED

    def test_closed_sentinel_delivered_after_queued_items_drain(self, engine):
        channel = Channel(engine, close_value=Channel.CLOSED)
        channel.put("job")
        channel.close()
        assert engine.run(channel.get()) == "job"
        assert engine.run(channel.get()) is Channel.CLOSED

    def test_closed_sentinel_wakes_pending_getters(self, engine):
        channel = Channel(engine, close_value=Channel.CLOSED)
        get_event = channel.get()
        channel.close()
        assert engine.run(get_event) is Channel.CLOSED

    def test_putting_the_sentinel_is_rejected(self, engine):
        channel = Channel(engine)
        with pytest.raises(SimError):
            channel.put(Channel.CLOSED)
