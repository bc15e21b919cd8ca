import heapq
import itertools
import sys
import threading
import time
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from lcws import pipeline as pl
from lcws.pipeline import BlockSchedule, LinkModel, ScheduleResult, StageTimes


def simulate_schedule(times: StageTimes, side: str) -> ScheduleResult:
    """Event-driven rerun of the two-stage pipeline, the oracle for the
    recurrence.

    Two servers, FIFO hand-off, blocks released in index order; agrees
    with the analytic recurrence to machine precision because it performs
    the same additions in the same order.
    """
    if side == pl.ENC:
        first, second = times.enc, times.tx
    elif side == pl.DEC:
        first, second = times.tx, times.dec
    else:
        raise ValueError(f"side must be {pl.ENC!r} or {pl.DEC!r}")

    n = times.n
    rows = [BlockSchedule(i + 1) for i in range(n)]
    events = []  # (time, seq, kind, block)
    seq = itertools.count()
    heapq.heappush(events, (0.0, next(seq), "start1", 0))
    stage2_busy = False
    ready: List[int] = []          # blocks finished with stage 1, FIFO
    starts1 = [None] * n
    ends1 = [None] * n
    starts2 = [None] * n
    ends2 = [None] * n
    now = 0.0
    while events:
        now, _, kind, i = heapq.heappop(events)
        if kind == "start1":
            starts1[i] = now
            heapq.heappush(events, (now + first[i], next(seq), "end1", i))
        elif kind == "end1":
            ends1[i] = now
            ready.append(i)
            if i + 1 < n:
                heapq.heappush(events, (now, next(seq), "start1", i + 1))
            if not stage2_busy:
                j = ready.pop(0)
                stage2_busy = True
                starts2[j] = now
                heapq.heappush(events, (now + second[j], next(seq), "end2", j))
        elif kind == "end2":
            ends2[i] = now
            stage2_busy = False
            if ready:
                j = ready.pop(0)
                stage2_busy = True
                starts2[j] = now
                heapq.heappush(events, (now + second[j], next(seq), "end2", j))
    total = now
    for i in range(n):
        if side == pl.ENC:
            rows[i].enc_start, rows[i].enc_end = starts1[i], ends1[i]
            rows[i].tx_start, rows[i].tx_end = starts2[i], ends2[i]
        else:
            rows[i].tx_start, rows[i].tx_end = starts1[i], ends1[i]
            rows[i].dec_start, rows[i].dec_end = starts2[i], ends2[i]
    if side == pl.ENC:
        seq_total = pl.sequential_total_enc(times)
    else:
        seq_total = pl.sequential_total_dec(times)
    return ScheduleResult(rows, seq_total, total)


def test_stage_times_validation():
    with pytest.raises(ValueError):
        StageTimes([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        StageTimes([-1.0], [1.0])
    assert StageTimes([1, 2], [3, 4]).n == 2


def test_sequential_totals():
    t = StageTimes([1, 1, 1, 1], [2, 2, 2, 2], [0.5] * 4)
    assert pl.sequential_total_enc(t) == 12
    assert pl.sequential_total_dec(t) == 10
    assert pl.sequential_total_enc(StageTimes([5], [3])) == 8
    assert pl.sequential_total_enc(StageTimes([0, 0], [0, 0])) == 0


def test_pipelined_enc_transmit_bound():
    # transmit dominates: total collapses to first encryption plus all transmit
    r = pl.pipelined_total_enc(StageTimes([1, 1, 1, 1], [2, 2, 2, 2]))
    assert r.total_pipelined == 9
    assert r.delta_t == 3


def test_pipelined_enc_compute_bound():
    r = pl.pipelined_total_enc(StageTimes([2, 2, 2], [1, 1, 1]))
    assert r.total_pipelined == 7
    assert r.delta_t == 2


def test_pipelined_single_block_no_overlap():
    r = pl.pipelined_total_enc(StageTimes([5], [3]))
    assert r.total_pipelined == 8
    assert r.delta_t == 0


def test_pipelined_dec_both_regimes():
    assert pl.pipelined_total_dec(StageTimes([0] * 4, [2] * 4, [1] * 4)).total_pipelined == 9
    assert pl.pipelined_total_dec(StageTimes([0] * 3, [1] * 3, [2] * 3)).total_pipelined == 7
    assert pl.pipelined_total_dec(StageTimes([0] * 3, [2] * 3, [0] * 3)).total_pipelined == 6


def test_delta_t_sides():
    t = StageTimes([1, 1, 1, 1], [2, 2, 2, 2], [1, 1, 1, 1])
    assert pl.delta_t(t, pl.ENC) == 3
    assert pl.delta_t(t, pl.DEC) == 3
    with pytest.raises(ValueError):
        pl.delta_t(t, "sideways")


def test_uniform_closed_forms():
    for n in range(1, 33):
        for a, b in [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0)]:
            t = StageTimes([a] * n, [b] * n)
            total = pl.pipelined_total_enc(t).total_pipelined
            if b >= a:
                assert total == a + sum(t.tx)
            if a >= b:
                assert total == sum(t.enc) + b


def test_schedule_rows_nondecreasing():
    r = pl.pipelined_total_enc(StageTimes([1, 3, 0.5], [2, 0.5, 4]))
    for prev, cur in zip(r.rows, r.rows[1:]):
        assert cur.enc_end >= prev.enc_end
        assert cur.tx_end >= prev.tx_end


float_list = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32),
    min_size=1, max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(enc=float_list, tx=float_list)
def test_pipelined_never_exceeds_sequential(enc, tx):
    n = min(len(enc), len(tx))
    t = StageTimes(enc[:n], tx[:n])
    r = pl.pipelined_total_enc(t)
    assert r.total_pipelined <= pl.sequential_total_enc(t) + 1e-9


@settings(max_examples=60, deadline=None)
@given(enc=float_list, tx=float_list, bump=st.floats(min_value=0.01, max_value=10.0),
       data=st.data())
def test_pipelined_monotone_in_each_duration(enc, tx, bump, data):
    n = min(len(enc), len(tx))
    t = StageTimes(enc[:n], tx[:n])
    base = pl.pipelined_total_enc(t).total_pipelined
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    grown_enc = list(t.enc)
    grown_enc[i] += bump
    assert pl.pipelined_total_enc(StageTimes(grown_enc, t.tx)).total_pipelined >= base
    grown_tx = list(t.tx)
    grown_tx[i] += bump
    assert pl.pipelined_total_enc(StageTimes(t.enc, grown_tx)).total_pipelined >= base


def test_strict_gain_for_positive_durations():
    t = StageTimes([0.3, 0.7, 0.2], [0.4, 0.1, 0.9])
    assert pl.delta_t(t, pl.ENC) > 0


@settings(max_examples=80, deadline=None)
@given(enc=float_list, tx=float_list, dec=float_list)
def test_simulation_matches_recurrence_exactly(enc, tx, dec):
    n = min(len(enc), len(tx), len(dec))
    t = StageTimes(enc[:n], tx[:n], dec[:n])
    for side in (pl.ENC, pl.DEC):
        analytic = pl.pipelined_total_enc(t) if side == pl.ENC else pl.pipelined_total_dec(t)
        simulated = simulate_schedule(t, side)
        assert simulated.total_pipelined == analytic.total_pipelined
        for ra, rs in zip(analytic.rows, simulated.rows):
            assert (ra.enc_start, ra.enc_end, ra.tx_start, ra.tx_end,
                    ra.dec_start, ra.dec_end) == \
                   (rs.enc_start, rs.enc_end, rs.tx_start, rs.tx_end,
                    rs.dec_start, rs.dec_end)


def test_link_model():
    link = LinkModel(bandwidth=1000.0, latency=0.5)
    assert link.transmit_seconds(2000) == 2.5
    with pytest.raises(ValueError):
        LinkModel(bandwidth=0)


# ---------------------------------------------------------------------------
# real executor
# ---------------------------------------------------------------------------

def _sleep_work(duration):
    def work(index, item):
        time.sleep(duration)
        return item
    return work


def test_run_pipeline_overlap_beats_serial():
    link = LinkModel(bandwidth=1.0e6, latency=0.04)
    payloads = [b"y" * 20000] * 4
    res = pl.run_pipeline(payloads, link, pl.ENC, _sleep_work(0.02))
    # measured stage durations: 4 x 0.02 s encrypt plus 4 x 0.06 s transmit
    assert res.total_pipelined < res.total_sequential


def test_run_pipeline_throttled_matches_closed_form():
    # transmit far dominates: wall clock approaches ET_1 + TT_M
    link = LinkModel(bandwidth=1.0e6, latency=0.05)
    payloads = [b"y" * 10000] * 5                  # tx = 0.06s per block
    res = pl.run_pipeline(payloads, link, pl.ENC, _sleep_work(0.005))
    rows = res.rows
    closed_form = rows[0].enc_end - rows[0].enc_start + sum(r.tx_end - r.tx_start for r in rows)
    assert abs(res.total_pipelined - closed_form) / closed_form < 0.10


def test_run_pipeline_decrypt_side():
    link = LinkModel(bandwidth=1.0e6, latency=0.03)
    payloads = [b"y" * 10000] * 4
    res = pl.run_pipeline(payloads, link, pl.DEC, _sleep_work(0.01))
    assert all(r.dec_end >= r.tx_end for r in res.rows)
    assert res.total_pipelined < res.total_sequential


def test_single_block_policy_has_zero_delta():
    from lcws import bench as bench_mod
    link = LinkModel(bandwidth=2.0e6, latency=0.05)
    report = bench_mod.run_bench([4096], levels=1, leaves=1, link=link,
                                 runs=1, seed=4, warmup=False)
    row = report.rows[0]
    assert row.enc_delta == 0.0
    assert row.dec_delta == 0.0


def _bounded(fn, timeout=20.0):
    """Call fn() in a driver thread, failing instead of hanging on a
    deadlock; afterwards no stage thread may be left running."""
    out = {}

    def call():
        try:
            out["result"] = fn()
        except BaseException as exc:
            out["error"] = exc

    driver = threading.Thread(target=call, name="test-driver")
    driver.start()
    driver.join(timeout)
    assert not driver.is_alive(), "pipeline did not finish"
    for t in threading.enumerate():
        if t.name.startswith("lcws-stage"):
            t.join(timeout)
            assert not t.is_alive(), f"{t.name} still running"
    return out


def test_run_pipeline_decrypt_stage_failure_does_not_deadlock():
    # stage two fails only once stage one has filled the hand-off and waits
    link = LinkModel(bandwidth=1.0e8)

    def explode(index, item):
        if index == 2:
            time.sleep(0.05)
            raise RuntimeError("dec boom")

    out = _bounded(lambda: pl.run_pipeline([b"x" * 10] * 12, link, pl.DEC, explode))
    assert type(out["error"]) is RuntimeError and str(out["error"]) == "dec boom"


class _CountingLink:
    """Stands in for LinkModel: records each block it carries, takes a
    fixed time per block, and can fail on one block."""

    def __init__(self, fail_at, seconds):
        self.calls = []
        self.fail_at = fail_at
        self.seconds = seconds

    def transmit(self, index, payload):
        self.calls.append(index)
        time.sleep(self.seconds)
        if index == self.fail_at:
            raise ConnectionError(f"link down at block {index}")
        return payload


@pytest.mark.parametrize("side,failing", [(pl.ENC, "enc"), (pl.ENC, "tx"),
                                          (pl.DEC, "tx"), (pl.DEC, "dec")])
def test_run_pipeline_stage_failure_stops_both_stages(side, failing):
    fail_at, n = 3, 20
    first, second = pl._STAGES[side]
    # stage two is the slow one, so stage one fills the hand-off and waits on it
    slow = 0.01
    link = _CountingLink(fail_at if failing == "tx" else None, slow if second == "tx" else 0.0)
    work_calls = []

    def work(index, item):
        work_calls.append(index)
        if second != "tx":
            time.sleep(slow)
        if failing != "tx" and index == fail_at:
            raise KeyError(index)
        return item

    out = _bounded(lambda: pl.run_pipeline([b"y" * 100] * n, link, side, work))
    assert type(out["error"]) is (ConnectionError if failing == "tx" else KeyError)
    calls = {"tx": link.calls, side: work_calls}    # work is the "enc" or "dec" stage
    # the failing stage starts no block after the failing one
    assert calls[failing] == list(range(1, fail_at + 1))
    if failing == first:
        # stage two never starts a block after stage one failed
        assert calls[second] == list(range(1, len(calls[second]) + 1))
        assert len(calls[second]) < fail_at
    else:
        # stage one stops too, at most a full hand-off and one block ahead
        assert calls[first] == list(range(1, len(calls[first]) + 1))
        assert len(calls[first]) <= fail_at + pl._HANDOFF_BLOCKS + 2 < n


def test_run_pipeline_rows_under_frequent_thread_switches():
    def work(index, item):
        return bytes(reversed(item))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for side in (pl.ENC, pl.DEC):
            payloads = [bytes([i]) * 64 for i in range(200)]
            out = _bounded(lambda: pl.run_pipeline(payloads, LinkModel(bandwidth=1.0e9),
                                                   side, work))
            first, second = pl._STAGES[side]
            rows = out["result"].rows
            assert [r.block for r in rows] == list(range(1, 201))
            for r in rows:
                s1, e1, s2, e2 = (getattr(r, f"{stage}_{edge}") for stage in (first, second)
                                  for edge in ("start", "end"))
                assert None not in (s1, e1, s2, e2)
                assert s1 <= e1 <= s2 <= e2
    finally:
        sys.setswitchinterval(previous)
