"""Dual-rate streaming speech enhancement.

A computation-heavy analysis branch runs at a low frame rate and emits
modulation packets; a two-FC-layer fast branch applies them at the high
frame rate demanded by the latency target (down to one sample), via a
diagonal state-space recurrence (ssmm), affine feature modulation (film),
or embedding concatenation (ec).
"""

from .engine import (
    ModelWeights,
    PAPER_DELTAS,
    SlowFastConfig,
    StreamSession,
    enhance_offline,
    init_model_weights,
    init_single_branch_weights,
    sample_level_config,
    single_branch_forward,
    slow_frame_span,
    two_ms_config,
)
from .signal_io import AudioBuffer, read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "ModelWeights",
    "PAPER_DELTAS",
    "SlowFastConfig",
    "StreamSession",
    "enhance_offline",
    "init_model_weights",
    "init_single_branch_weights",
    "read_wav",
    "sample_level_config",
    "single_branch_forward",
    "slow_frame_span",
    "two_ms_config",
    "write_wav",
    "__version__",
]
