"""Counted resources and FIFO channels for the simulation engine."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Engine, Event, SimError

__all__ = ["Request", "Resource", "Channel"]


class Request(Event):
    """An outstanding acquisition of a :class:`Resource` slot.

    Yield the request to wait for the slot; call
    :meth:`Resource.release` (or use the request as a context manager inside
    a process via ``with``-style pairing) when done.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.engine, name=f"request:{resource.name}")
        self.resource = resource


class Resource:
    """A resource with ``capacity`` identical slots (FIFO queuing).

    Typical use inside a process::

        req = resource.request()
        yield req
        try:
            yield engine.timeout(work)
        finally:
            resource.release(req)
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: set = set()
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            # Released before it was ever granted: just cancel it.
            self._waiting.remove(request)
            return
        else:
            raise SimError(f"release of unknown request on {self.name!r}")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()


class _ChannelClosed:
    """Singleton sentinel a closed channel resolves gets with (opt-in)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Channel.CLOSED>"


class Channel:
    """Unbounded FIFO mailbox between processes.

    :meth:`put` never blocks; :meth:`get` returns an event that triggers with
    the next item (immediately if one is queued).

    By default a closed channel resolves pending and future gets with
    ``None`` — indistinguishable from a legitimately queued ``None`` item.
    Consumers that need to tell shutdown from payload (e.g. a dispatcher
    draining job queues) construct the channel with
    ``close_value=Channel.CLOSED`` and compare the get result against the
    :data:`Channel.CLOSED` sentinel, which no producer can ever enqueue.
    """

    #: sentinel distinguishing "channel closed" from a queued ``None``
    CLOSED = _ChannelClosed()

    def __init__(self, engine: Engine, name: str = "channel",
                 close_value: Any = None):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False
        self._close_value = close_value

    def put(self, item: Any) -> None:
        if item is Channel.CLOSED:
            raise SimError(
                f"cannot put the CLOSED sentinel on channel {self.name!r}")
        self._put(item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def _put(self, item: Any) -> None:
        if self._closed:
            raise SimError(f"put on closed channel {self.name!r}")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.engine, name=f"get:{self.name}")
        if self._items:
            event.succeed(self._items.popleft())
        elif self._closed:
            event.succeed(self._close_value)
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        """Close the channel; pending and future gets resolve with the
        channel's ``close_value`` (``None`` by default)."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            self._getters.popleft().succeed(self._close_value)
