"""Two-stage pipeline: the latency recurrence and a threaded executor.

Blocks pass through a compute stage and a transmit stage, in either order,
one worker per stage with FIFO hand-off: stage two starts a block once it
has finished the previous one and stage one has finished this one.
"""

import functools
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

ENC = "enc"
DEC = "dec"
# side -> (stage one, stage two), naming both the StageTimes durations and
# the BlockSchedule fields of each stage
_STAGES = {ENC: ("enc", "tx"), DEC: ("tx", "dec")}
_HANDOFF_BLOCKS = 4            # blocks stage one may run ahead of stage two


@dataclass(frozen=True)
class StageTimes:
    """Per-block durations in seconds for the three protocol stages."""

    enc: Tuple[float, ...]
    tx: Tuple[float, ...]
    dec: Tuple[float, ...]

    def __init__(self, enc: Sequence[float], tx: Sequence[float], dec: Sequence[float] = None):
        dec = [0.0] * len(tx) if dec is None else dec
        for name, values in (("enc", enc), ("tx", tx), ("dec", dec)):
            object.__setattr__(self, name, tuple(float(x) for x in values))
        if not (len(self.enc) == len(self.tx) == len(self.dec)):
            raise ValueError("stage duration lists must have equal length")
        if any(x < 0 for x in self.enc + self.tx + self.dec):
            raise ValueError("durations must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.enc)


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


def _result(side: str, spans, sequential: float, total: float) -> ScheduleResult:
    fields = [f"{stage}_{edge}" for stage in _STAGES[side] for edge in ("start", "end")]
    rows = [BlockSchedule(i, **dict(zip(fields, span))) for i, span in enumerate(spans, 1)]
    return ScheduleResult(rows, sequential, total)


def schedule(times: StageTimes, side: str) -> ScheduleResult:
    """Exact overlap recurrence and sequential total for one side."""
    first, second = (getattr(times, name) for name in _stages(side))
    spans = []
    end1 = end2 = 0.0
    for a, b in zip(first, second):
        start1, end1 = end1, end1 + a
        start2 = max(end2, end1)
        end2 = start2 + b
        spans.append((start1, end1, start2, end2))
    return _result(side, spans, sum(first) + sum(second), end2)


pipelined_total_enc = functools.partial(schedule, side=ENC)
pipelined_total_dec = functools.partial(schedule, side=DEC)


def sequential_total_enc(times: StageTimes) -> float:
    return schedule(times, ENC).total_sequential


def sequential_total_dec(times: StageTimes) -> float:
    return schedule(times, DEC).total_sequential


def delta_t(times: StageTimes, side: str) -> float:
    return schedule(times, side).delta_t


@dataclass(frozen=True)
class LinkModel:
    """Linear link: per-message fixed latency plus size over bandwidth."""

    bandwidth: float             # bytes per second
    latency: float = 0.0         # seconds per message

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def transmit_seconds(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def transmit(self, index: int, payload: bytes) -> bytes:
        """Stage callable: hold `payload` for its time on the link."""
        time.sleep(self.transmit_seconds(len(payload)))
        return payload


def run_two_stage(items: Iterable, side: str, first: Callable[[int, object], object],
                  second: Callable[[int, object], object]) -> ScheduleResult:
    """Run second(i, first(i, item)) for each item, i from 1, each stage in
    its own thread and in item order, stage one at most `_HANDOFF_BLOCKS`
    blocks ahead; rows are wall-clock seconds from the call.  If a stage
    raises, neither stage starts another block, and the exception is
    re-raised here once both threads have ended.
    """
    handoff: "queue.Queue" = queue.Queue(maxsize=_HANDOFF_BLOCKS)
    done = object()
    errors: List[BaseException] = []
    spans: List[list] = []
    t0 = time.perf_counter()

    def stage_one():
        try:
            for i, item in enumerate(items, 1):
                if errors:
                    break
                start = time.perf_counter() - t0
                out = first(i, item)
                spans.append([start, time.perf_counter() - t0])
                handoff.put((i, out, spans[-1]))
        except BaseException as exc:
            errors.append(exc)
        finally:
            handoff.put(done)

    def stage_two():
        # drains the hand-off to the end, so stage one never blocks on it
        for i, out, span in iter(handoff.get, done):
            if errors:
                continue
            try:
                start = time.perf_counter() - t0
                second(i, out)
                span.extend((start, time.perf_counter() - t0))
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=stage_one, name="lcws-stage1"),
               threading.Thread(target=stage_two, name="lcws-stage2")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return _result(side, spans, sum(e1 - s1 + e2 - s2 for s1, e1, s2, e2 in spans), total)


def run_pipeline(blocks: Sequence, link: LinkModel, side: str,
                 work: Callable[[int, object], object]) -> ScheduleResult:
    """Run `work` (called as work(index, item)) and the link over a block
    stream: on the encrypt side `work` comes first and its output's length
    prices the link, on the decrypt side it runs on each item as carried."""
    stages = (link.transmit if name == "tx" else work for name in _stages(side))
    return run_two_stage(blocks, side, *stages)
