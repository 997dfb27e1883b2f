"""The engine's exact time base: fixed-point microseconds.

The clock is an **integer** count of *ticks*, where one microsecond is
``TICKS_PER_US = 2**52`` ticks.  All clock arithmetic (advancing ``now``,
comparing deadlines, re-arming watchdogs) happens on integers and is
exact; floats only appear at the conversion boundary defined here.

Why fixed point instead of plain integer microseconds: the hardware cost
model produces arbitrary float durations (a work-group takes
``flops / (slot_flops * eff)`` seconds), and quantizing those to whole
microseconds would change every simulated schedule.  One tick is
``2**-52`` of a microsecond (about ``2.2e-22`` s), so:

* **microsecond-aligned durations convert exactly** — :func:`to_ticks`
  snaps to the microsecond grid whenever the input *is* the float for a
  whole number of microseconds (:func:`is_us_aligned`), giving exactly
  ``k << 52`` ticks, and :func:`from_ticks` renders those back through
  the ``us / 1e6`` path.  Summing aligned delays therefore accumulates
  zero error: the ``micro.condition_wait`` drift
  (``0.019999999999999348`` instead of ``0.02``) is gone structurally,
  not patched per call site;
* any other duration converts with an **absolute error of at most one
  tick** (plus one float rounding on the way back) that does **not**
  accumulate — the clock itself is an integer, so a million events
  carry a million independent sub-``1e-21``-second errors instead of a
  compounding float sum.

Conversions round half-to-even (Python's :func:`round`).
"""

from __future__ import annotations

from math import ldexp

__all__ = [
    "US_PER_SECOND",
    "TICK_BITS",
    "TICKS_PER_US",
    "NEGATIVE_SLACK_SECONDS",
    "to_ticks",
    "from_ticks",
    "delay_to_ticks",
    "is_us_aligned",
]

US_PER_SECOND = 1_000_000

#: fractional bits of the fixed-point microsecond
TICK_BITS = 52

#: ticks per microsecond (2**52): float durations keep their full mantissa
TICKS_PER_US = 1 << TICK_BITS

#: ticks per second as an exact float — 1e6 * 2**52 is 15625 * 2**58,
#: whose mantissa (15625) fits comfortably in a double
_TICKS_PER_SECOND_F = float(TICKS_PER_US * US_PER_SECOND)

#: deadline arithmetic done in floats (``deadline - now``) can land a few
#: ULP on the wrong side of zero; anything this small is treated as "now"
#: instead of "the past".  Real negative delays (milliseconds into the
#: past) still raise.
NEGATIVE_SLACK_SECONDS = 1e-9

#: the same slack in ticks (exact: 1e-9 s = 1e-3 µs -> scaled once)
NEGATIVE_SLACK_TICKS = round(ldexp(1e-9 * US_PER_SECOND, TICK_BITS))


def to_ticks(seconds: float) -> int:
    """Convert float seconds to integer ticks (round half-to-even).

    Values on the microsecond grid (``k / 1e6`` for integer ``k``) snap
    to exactly ``k << 52`` ticks, so aligned delays carry zero residue
    and re-render exactly.  Everything else scales by ``1e6 * 2**52``
    with one float rounding (the ``* 1e6``; the ``2**52`` is exact) plus
    the final half-to-even :func:`round` — at most one tick of absolute
    error, never accumulated.
    """
    us = seconds * US_PER_SECOND
    whole = round(us)
    if whole / US_PER_SECOND == seconds:
        return whole << TICK_BITS
    return round(ldexp(us, TICK_BITS))


def from_ticks(ticks: int) -> float:
    """Convert integer ticks back to float seconds (single rounding).

    Tick counts with no sub-microsecond residue take the ``us / 1e6``
    path, so microsecond-aligned instants always render as the nearest
    float to the exact decimal (``20000`` µs -> exactly ``0.02``).
    """
    us, frac = divmod(ticks, TICKS_PER_US)
    if not frac:
        return us / 1e6
    return ticks / _TICKS_PER_SECOND_F


def delay_to_ticks(delay: float) -> int:
    """Ticks for a relative delay; clamps float-noise negatives to zero.

    ``deadline - now`` style arithmetic can produce values like
    ``-1e-18``; those become a zero delay.  Negative delays beyond
    :data:`NEGATIVE_SLACK_SECONDS` raise :class:`ValueError`.
    """
    if delay < 0:
        if delay < -NEGATIVE_SLACK_SECONDS:
            raise ValueError(f"cannot schedule into the past: {delay!r}")
        return 0
    return to_ticks(delay)


def is_us_aligned(seconds: float) -> bool:
    """True when ``seconds`` is exactly a whole number of microseconds."""
    return round(seconds * US_PER_SECOND) / 1e6 == seconds
