"""Spans recorded around calls into the package, installed from outside it.

``Tracer.install()`` replaces public functions of the package's modules with
timing wrappers for the duration of a ``with`` block and restores them on
exit. Each call becomes one span: name, start, end and the index of the span
that was open when it began. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import time

from slowfast_se import engine, fast_branch, slow_branch
from slowfast_se.training import backprop, loop

# (span name, owner object, attribute). Wrapping the attribute the caller
# looks up is what makes the call visible: the engine calls
# ``engine.slow_forward`` and ``fast_branch.ssmm_step``, ``slow_forward``
# calls ``slow_branch.gru_cell_step`` and ``slow_branch.activate_head``, and
# ``backprop.backward`` calls ``backprop.forward_batch`` and
# ``backprop.total_loss_grad``.
TARGETS = (
    ("engine.push", engine.StreamSession, "push_samples"),
    ("engine.pull", engine.StreamSession, "pull_output"),
    ("engine.close", engine.StreamSession, "close"),
    ("slow.forward", engine, "slow_forward"),
    ("slow.gru", slow_branch, "gru_cell_step"),
    ("slow.head", slow_branch, "activate_head"),
    ("fast.step", fast_branch, "ssmm_step"),
    ("train.backward", backprop, "backward"),
    ("train.forward", backprop, "forward_batch"),
    ("train.loss", backprop, "total_loss_grad"),
    ("train.clip", loop, "clip_gradients"),
    ("train.adam", loop.AdamOptimizer, "step"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def span(self, name: str, fn):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TARGETS]
        try:
            for name, owner, attr in TARGETS:
                setattr(owner, attr, self.span(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        A span's self time is its duration minus its children's durations
        (one thread, so children never overlap). For engine.push the
        children are the slow and fast branch calls, and its self time is
        framing, buffers, dispatch and overlap-add.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            t = out.setdefault(self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """One line per span: index, parent index, name, start, end (s)."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i]!r},{self.ends[i]!r}\n")
