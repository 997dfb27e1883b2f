"""FluidiCL runtime configuration.

Defaults match the paper's evaluated configuration: all optimizations on
except online profiling ("All applications have been run with all
optimizations enabled except the online profiling optimization", section 9.1),
initial CPU chunk of 10% of the work-groups growing in 10% steps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FluidiCLConfig"]


@dataclass(frozen=True)
class FluidiCLConfig:
    """Tunable behaviour of :class:`~repro.core.runtime.FluidiCLRuntime`."""

    #: first CPU subkernel size, as a fraction of total work-groups (§5.1)
    initial_chunk_fraction: float = 0.10
    #: adaptive growth step, as a fraction of total work-groups (§5.1)
    chunk_step_fraction: float = 0.10
    #: place abort checks inside kernel loops (§6.4; Fig. 15 "NoAbortUnroll"
    #: is this turned off)
    abort_in_loops: bool = True
    #: re-apply loop unrolling around the inner abort checks (§6.5; Fig. 15
    #: "NoUnroll" is this turned off)
    loop_unroll: bool = True
    #: split small CPU allocations across all compute units (§6.3)
    cpu_wg_split: bool = True
    #: reuse GPU-side helper buffers instead of reallocating (§6.1)
    use_buffer_pool: bool = True
    #: track data location to skip redundant device-to-host reads (§6.2)
    location_tracking: bool = True
    #: time alternate kernel versions online and pick the fastest (§6.6;
    #: disabled in the headline results, enabled for Table 3)
    online_profiling: bool = False
    #: seconds without device progress before the per-kernel watchdog
    #: escalates a silent device to lost
    watchdog_timeout: float = 0.25
    #: fluidity lint gate before cooperative launch (repro.analysis):
    #: "strict" refuses kernels that are not fluidic-safe, "warn" emits
    #: lint_finding events and launches anyway, "off" skips the analysis
    lint: str = "warn"

    def __post_init__(self):
        if not 0 < self.initial_chunk_fraction <= 1:
            raise ValueError("initial_chunk_fraction must be in (0, 1]")
        if not 0 <= self.chunk_step_fraction <= 1:
            raise ValueError("chunk_step_fraction must be in [0, 1]")
        if self.watchdog_timeout <= 0:
            raise ValueError("watchdog_timeout must be positive")
        if self.lint not in ("off", "warn", "strict"):
            raise ValueError(
                f"lint must be 'off', 'warn' or 'strict', got {self.lint!r}"
            )

    @classmethod
    def all_optimizations(cls) -> "FluidiCLConfig":
        """The paper's Fig. 15 ``AllOpt`` configuration."""
        return cls()

    @classmethod
    def no_abort_in_loops(cls) -> "FluidiCLConfig":
        """Fig. 15 ``NoAbortUnroll``: abort checks only at work-group start."""
        return cls(abort_in_loops=False)

    @classmethod
    def no_unroll(cls) -> "FluidiCLConfig":
        """Fig. 15 ``NoUnroll``: inner abort checks but no unrolling fix-up."""
        return cls(loop_unroll=False)
