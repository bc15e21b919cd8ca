"""Two-stage pipeline: the latency recurrence and a threaded executor.

Blocks pass through a compute stage and a transmit stage, in either order,
with FIFO hand-off from stage one's worker thread to stage two in the
caller's: stage two starts a block once it has finished the previous one
and stage one has finished this one.  `schedule(side, first, second)`
evaluates that rule exactly from each stage's per-block durations (the
makespan recurrence of a two-machine flow shop), and `run_two_stage(items,
side, first, second)` runs the stages themselves; both take the stages in
order and return the same `ScheduleResult`.
"""

import math
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

ENC = "enc"
DEC = "dec"
# side -> (stage one, stage two), naming the BlockSchedule fields of each stage
_STAGES = {ENC: ("enc", "tx"), DEC: ("tx", "dec")}
_HANDOFF_BLOCKS = 1            # blocks stage one may run ahead of stage two


@dataclass
class BlockSchedule:
    block: int
    enc_start: Optional[float] = None
    enc_end: Optional[float] = None
    tx_start: Optional[float] = None
    tx_end: Optional[float] = None
    dec_start: Optional[float] = None
    dec_end: Optional[float] = None


@dataclass
class ScheduleResult:
    rows: List[BlockSchedule]
    total_sequential: float
    total_pipelined: float

    @property
    def delta_t(self) -> float:
        return self.total_sequential - self.total_pipelined


def _stages(side: str) -> Tuple[str, str]:
    if side not in _STAGES:
        raise ValueError(f"side must be {ENC!r} or {DEC!r}")
    return _STAGES[side]


def _result(stages: Tuple[str, str], spans, sequential: float, total: float) -> ScheduleResult:
    fields = [f"{stage}_{edge}" for stage in stages for edge in ("start", "end")]
    rows = [BlockSchedule(i, **dict(zip(fields, span))) for i, span in enumerate(spans, 1)]
    return ScheduleResult(rows, sequential, total)


def schedule(side: str, first: Sequence[float], second: Sequence[float]) -> ScheduleResult:
    """Exact overlap recurrence and sequential total for one side, from the
    per-block durations in seconds of stage one and of stage two."""
    stages = _stages(side)
    first, second = tuple(map(float, first)), tuple(map(float, second))
    if len(first) != len(second):
        raise ValueError("stage duration lists must have equal length")
    if not all(0 <= x < math.inf for x in first + second):
        raise ValueError("durations must be finite and nonnegative")
    spans = []
    end1 = end2 = 0.0
    for a, b in zip(first, second):
        start1, end1 = end1, end1 + a
        start2 = max(end2, end1)
        end2 = start2 + b
        spans.append((start1, end1, start2, end2))
    return _result(stages, spans, sum(first) + sum(second), end2)


@dataclass(frozen=True)
class LinkModel:
    """Linear link: per-message fixed latency plus size over bandwidth."""

    bandwidth: float             # bytes per second
    latency: float = 0.0         # seconds per message

    def __post_init__(self):
        # time.sleep waits at most threading.TIMEOUT_MAX, about 9.2e9 s: within
        # these bounds any block under about 8 GiB crosses in less than that
        if not 1 <= self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and at least 1 byte/s")
        if not 0 <= self.latency <= 86400:
            raise ValueError("latency must be from 0 to 86400 seconds")

    def transmit_seconds(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def transmit(self, index: int, payload: bytes) -> bytes:
        """Stage callable: hold `payload` for its time on the link."""
        time.sleep(self.transmit_seconds(len(payload)))
        return payload


def run_two_stage(items: Iterable, side: str, first: Callable[[int, object], object],
                  second: Callable[[int, object], object]) -> ScheduleResult:
    """Run second(i, first(i, item)) for each item, i from 1, in item order:
    stage one in a worker thread at most `_HANDOFF_BLOCKS` blocks ahead,
    stage two in the caller's thread; rows are wall-clock seconds from the
    call, and stage one's span of an item includes drawing it from `items`.
    One block ahead keeps stage two fed whenever stage one is the faster
    stage, and when it is the slower one no depth fills.  A deeper hand-off
    only lets the worker hold the GIL while a sleeping link stage wakes:
    the woken thread then waits out the interpreter's switch interval
    (5 ms by default) before its block is done.
    If a stage raises or the caller is interrupted, neither stage starts
    another block, and the first exception is re-raised here once the
    worker has ended.  An unknown side is refused before either stage runs.
    """
    stages = _stages(side)
    handoff: "queue.Queue" = queue.Queue(maxsize=_HANDOFF_BLOCKS)
    done = object()
    errors: List[BaseException] = []
    spans: List[list] = []
    t0 = time.perf_counter()

    def stage_one():
        try:
            numbered = enumerate(items, 1)
            while not errors:
                start = time.perf_counter() - t0
                drawn = next(numbered, None)
                if drawn is None:
                    break
                i, item = drawn
                out = first(i, item)
                spans.append([start, time.perf_counter() - t0])
                handoff.put((i, out, spans[-1]))
        except BaseException as exc:
            errors.append(exc)
        finally:
            handoff.put(done)

    worker = threading.Thread(target=stage_one, name="lcws-stage1")
    try:
        worker.start()                 # an interrupt may land in here too
        for i, out, span in iter(handoff.get, done):
            if not errors:
                start = time.perf_counter() - t0
                second(i, out)
                span.extend((start, time.perf_counter() - t0))
    except BaseException as exc:
        errors.append(exc)
        # a started worker stops before its next block and then sends the
        # end marker; reading up to it frees a worker blocked on the hand-off
        while worker.is_alive() and handoff.get() is not done:
            pass
    if worker.is_alive():              # not so if it never started
        worker.join()
    total = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return _result(stages, spans, sum(e1 - s1 + e2 - s2 for s1, e1, s2, e2 in spans), total)


def run_pipeline(blocks: Sequence, link: LinkModel, side: str,
                 work: Callable[[int, object], object]) -> ScheduleResult:
    """Run `work` (called as work(index, item)) and the link over a block
    stream: on the encrypt side `work` comes first and its output's length
    prices the link, on the decrypt side it runs on each item as carried."""
    stages = (link.transmit if name == "tx" else work for name in _stages(side))
    return run_two_stage(blocks, side, *stages)
