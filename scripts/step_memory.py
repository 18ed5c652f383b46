"""Where a training step's memory goes, phase by phase, at two presets.

    python3 scripts/step_memory.py

Runs one ssmm training step after one warm-up step, with the batch, presets,
phases and one BLAS thread of ``scripts/step_split.py``: 16 one-second
synthetic clips from ``passthrough_start``, at ``two_ms_config(3)`` and at
``sample_level_config()``. tracemalloc traces the counted step only, so it
counts the memory the step takes anew, as the benchmark's ``peak_mib`` does.

Each phase's wrapper reads tracemalloc's live and peak memory at the
phase's boundaries and resets the peak, so each cell gives the live MiB at
the phase's last boundary (for rest, the end of the step) and the peak MiB
while the phase ran. The last column is the step's peak.
"""

from __future__ import annotations

import sys
import tracemalloc

# step_split sets one BLAS thread before numpy loads
from step_split import CLIPS, PHASES, PRESETS, install, trainer

MIB = 2**20


class MemoryMeter:
    """Live MiB at each phase's last boundary and peak MiB within it."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.live = dict.fromkeys(PHASES, 0.0)
        self.peak = dict.fromkeys(PHASES, 0.0)
        self._open = ["rest"]  # the phase that runs outside every wrapper

    def boundary(self) -> None:
        """Book the memory since the last boundary to the open phase."""
        live, peak = tracemalloc.get_traced_memory()
        phase = self._open[-1]
        self.live[phase] = live / MIB
        self.peak[phase] = max(self.peak[phase], peak / MIB)
        tracemalloc.reset_peak()

    def wrap(self, phase: str, fn):
        def metered(*args, **kwargs):
            self.boundary()
            self._open.append(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.boundary()
                self._open.pop()
        return metered


def measure(config, meter: MemoryMeter) -> None:
    """Books one traced step at ``config`` into ``meter``."""
    step = trainer(config)
    step()  # warm-up, not traced
    meter.reset()
    tracemalloc.start()
    try:
        step()
        meter.boundary()
    finally:
        tracemalloc.stop()


def main() -> int:
    meter = MemoryMeter()
    install(meter)
    print(f"ssmm, {CLIPS} clips, one step after a warm-up step; "
          "each cell is live / peak MiB (tracemalloc)")
    print("| preset | " + " | ".join(PHASES) + " | step peak MiB |")
    print("|---" * (len(PHASES) + 2) + "|")
    for name, config in PRESETS.items():
        measure(config, meter)
        cells = [f"{meter.live[p]:.1f} / {meter.peak[p]:.1f}" for p in PHASES]
        print("| " + " | ".join([name, *cells, f"{max(meter.peak.values()):.1f}"]) + " |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
