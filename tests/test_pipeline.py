import faulthandler
import heapq
import itertools
import math
import random
import signal
import sys
import threading
import time
from pathlib import Path
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from lcws import pipeline as pl
from lcws import scheme, wire
from lcws.pipeline import BlockSchedule, LinkModel, ScheduleResult
from lcws.policy import parse_policy
from lcws.store import BlobStore, make_object_id


def simulate_schedule(side: str, first: Sequence[float],
                      second: Sequence[float]) -> ScheduleResult:
    """Event-driven rerun of the two-stage pipeline, the oracle for the
    recurrence.

    Two servers, FIFO hand-off, blocks released in index order; agrees
    with the analytic recurrence to machine precision because it performs
    the same additions in the same order.
    """
    n = len(first)
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
    return ScheduleResult(rows, sum(first) + sum(second), total)


def test_schedule_validation():
    with pytest.raises(ValueError):
        pl.schedule(pl.ENC, [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pl.schedule(pl.ENC, [-1.0], [1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            pl.schedule(pl.ENC, [1.0, bad], [1.0, 1.0])
        with pytest.raises(ValueError):
            pl.schedule(pl.DEC, [1.0], [bad])
    with pytest.raises(ValueError):
        pl.schedule("sideways", [1.0], [1.0])


def test_sequential_totals():
    assert pl.schedule(pl.ENC, [1, 1, 1, 1], [2, 2, 2, 2]).total_sequential == 12
    assert pl.schedule(pl.DEC, [2, 2, 2, 2], [0.5] * 4).total_sequential == 10
    assert pl.schedule(pl.ENC, [5], [3]).total_sequential == 8
    assert pl.schedule(pl.ENC, [0, 0], [0, 0]).total_sequential == 0


def test_pipelined_enc_transmit_bound():
    # transmit dominates: total collapses to first encryption plus all transmit
    r = pl.schedule(pl.ENC, [1, 1, 1, 1], [2, 2, 2, 2])
    assert r.total_pipelined == 9
    assert r.delta_t == 3


def test_pipelined_enc_compute_bound():
    r = pl.schedule(pl.ENC, [2, 2, 2], [1, 1, 1])
    assert r.total_pipelined == 7
    assert r.delta_t == 2


def test_pipelined_single_block_no_overlap():
    r = pl.schedule(pl.ENC, [5], [3])
    assert r.total_pipelined == 8
    assert r.delta_t == 0


def test_pipelined_dec_both_regimes():
    assert pl.schedule(pl.DEC, [2] * 4, [1] * 4).total_pipelined == 9
    assert pl.schedule(pl.DEC, [1] * 3, [2] * 3).total_pipelined == 7
    assert pl.schedule(pl.DEC, [2] * 3, [0] * 3).total_pipelined == 6


def test_delta_t_sides():
    assert pl.schedule(pl.ENC, [1, 1, 1, 1], [2, 2, 2, 2]).delta_t == 3
    assert pl.schedule(pl.DEC, [2, 2, 2, 2], [1, 1, 1, 1]).delta_t == 3


def test_uniform_closed_forms():
    for n in range(1, 33):
        for a, b in [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0)]:
            enc, tx = [a] * n, [b] * n
            total = pl.schedule(pl.ENC, enc, tx).total_pipelined
            if b >= a:
                assert total == a + sum(tx)
            if a >= b:
                assert total == sum(enc) + b


def test_schedule_rows_nondecreasing():
    r = pl.schedule(pl.ENC, [1, 3, 0.5], [2, 0.5, 4])
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
    r = pl.schedule(pl.ENC, enc[:n], tx[:n])
    assert r.total_pipelined <= r.total_sequential + 1e-9


@settings(max_examples=60, deadline=None)
@given(enc=float_list, tx=float_list, bump=st.floats(min_value=0.01, max_value=10.0),
       data=st.data())
def test_pipelined_monotone_in_each_duration(enc, tx, bump, data):
    n = min(len(enc), len(tx))
    enc, tx = enc[:n], tx[:n]
    base = pl.schedule(pl.ENC, enc, tx).total_pipelined
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    grown_enc = list(enc)
    grown_enc[i] += bump
    assert pl.schedule(pl.ENC, grown_enc, tx).total_pipelined >= base
    grown_tx = list(tx)
    grown_tx[i] += bump
    assert pl.schedule(pl.ENC, enc, grown_tx).total_pipelined >= base


def test_strict_gain_for_positive_durations():
    assert pl.schedule(pl.ENC, [0.3, 0.7, 0.2], [0.4, 0.1, 0.9]).delta_t > 0


@settings(max_examples=80, deadline=None)
@given(enc=float_list, tx=float_list, dec=float_list)
def test_simulation_matches_recurrence_exactly(enc, tx, dec):
    n = min(len(enc), len(tx), len(dec))
    durations = {"enc": enc[:n], "tx": tx[:n], "dec": dec[:n]}
    for side in (pl.ENC, pl.DEC):
        first, second = (durations[stage] for stage in pl._STAGES[side])
        analytic = pl.schedule(side, first, second)
        simulated = simulate_schedule(side, first, second)
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
    with pytest.raises(ValueError):
        LinkModel(bandwidth=1000.0, latency=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LinkModel(bandwidth=bad)
        with pytest.raises(ValueError):
            LinkModel(bandwidth=1000.0, latency=bad)
    # past these, a block's time on the link is longer than time.sleep takes
    for bandwidth, latency in ((1e-300, 0.0), (1e6, 1e10), (1e6, 1e300)):
        with pytest.raises(ValueError):
            LinkModel(bandwidth=bandwidth, latency=latency)
    assert LinkModel(bandwidth=1.0, latency=86400).transmit_seconds(2) == 86402


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


def test_run_two_stage_refuses_an_unknown_side_before_either_stage():
    calls = []

    def stage(index, item):
        calls.append(index)
        return item

    with pytest.raises(ValueError):
        pl.run_two_stage([1, 2, 3], "sideways", stage, stage)
    assert calls == []


@pytest.mark.parametrize("side,stage_two", [(pl.ENC, "tx"), (pl.DEC, "dec")])
def test_benchmark_reads_a_measured_schedule(monkeypatch, side, stage_two):
    # perfbench/roles.py reads ScheduleResult.delta_t and the BlockSchedule
    # fields by name; a rename would break `perfbench/run.py` without
    # failing any other test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import roles

    link = LinkModel(bandwidth=1.0e6, latency=0.02)
    res = pl.run_pipeline([b"y" * 1000] * 3, link, side, _sleep_work(0.02))
    stats = roles.schedule_stats(res, stage_two)
    assert stats["overlap_s"] == res.delta_t > 0
    assert 0 < stats["wait_s"] < res.total_pipelined


@pytest.mark.parametrize("link", [None, LinkModel(bandwidth=1.0e6, latency=0.01)],
                         ids=["no-link", "link"])
def test_benchmark_receiver_decrypts_a_stored_message(monkeypatch, tmp_path, suite, link):
    # perfbench/roles.py's receiver drives DecryptionState, add_block,
    # state.commitment and assemble_message by name; a rename would fail
    # every benchmark message without failing any other test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import roles

    pk, mk, ctx = suite
    rng = random.Random(49)
    msg = rng.randbytes(3000)
    store = BlobStore(tmp_path)
    for ctb in scheme.encrypt_message(msg, parse_policy("(a AND (b OR c))"), pk, ctx, rng):
        store.put(make_object_id("m1", ctb.index), wire.encode_ctb(ctb, "m1"))
    key_file = wire.encode_secret_key(scheme.keygen(pk, mk, {"a", "c"}, rng))
    receiver = roles.Receiver.__new__(roles.Receiver)      # no plan, key files or master key
    receiver.store_dir = tmp_path
    out, commitment, schedule = receiver.decrypt(key_file, "m1", link)
    assert out == msg and commitment == scheme.data_verification(msg, ctx)
    if link is None:
        assert schedule is None
    else:
        assert [r.block for r in schedule.rows] == [1, 2, 3] and schedule.total_pipelined > 0


def test_run_two_stage_times_a_generator_as_stage_one():
    def items():
        for i in range(4):
            time.sleep(0.05)                       # the item is made as it is drawn
            yield i

    res = pl.run_two_stage(items(), pl.ENC, lambda index, item: item,
                           lambda index, item: None)
    assert [r.block for r in res.rows] == [1, 2, 3, 4]
    assert all(r.enc_end - r.enc_start >= 0.05 for r in res.rows)
    assert res.total_sequential >= 0.2


def test_single_block_policy_has_zero_delta():
    from lcws import bench as bench_mod
    link = LinkModel(bandwidth=2.0e6, latency=0.05)
    report = bench_mod.run_bench([4096], levels=1, leaves=1, link=link,
                                 runs=1, seed=4)
    row = report.rows[0]
    assert row.enc_delta == 0.0
    assert row.dec_delta == 0.0


def _bounded(fn, timeout=20.0):
    """Call fn() in a driver thread, failing instead of hanging on a
    deadlock."""
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


def _stage_threads():
    return [t for t in threading.enumerate() if t.name.startswith("lcws-stage")]


def test_run_two_stage_runs_stage_two_in_the_callers_thread():
    seen = {"first": set(), "second": set(), "stage threads": set()}

    def stage(name):
        def call(index, item):
            seen[name].add(threading.current_thread())
            seen["stage threads"].add(tuple(t.name for t in _stage_threads()))
            return item
        return call

    def run():
        seen["caller"] = threading.current_thread()
        return pl.run_two_stage(range(12), pl.DEC, stage("first"), stage("second"))

    res = _bounded(run)["result"]
    assert [r.block for r in res.rows] == list(range(1, 13))
    assert seen["second"] == {seen["caller"]}
    [worker] = seen["first"]
    assert worker.name == "lcws-stage1" and not worker.is_alive()
    assert seen["stage threads"] == {("lcws-stage1",)}


@pytest.mark.parametrize("slow", ["first", "second"])
@pytest.mark.parametrize("at", [1, 2, 3])
@pytest.mark.parametrize("signaller", ["first", "second"])
def test_interrupt_stops_both_stages(signaller, at, slow):
    # SIGINT reaches the main thread, which runs stage two, while either
    # stage is at block `at`; the signal is logged just before it is sent
    assert threading.current_thread() is threading.main_thread()
    n = 20
    log = []

    def stage(name):
        def call(index, item):
            log.append((name, index))
            if name == signaller and index == at:
                log.append(("signal", index))
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            if name == slow:
                time.sleep(0.02)
            return item
        return call

    # a process started with SIGINT ignored (as under `&` from a script) inherits
    # that, so the test installs Python's own handler for its duration
    old_handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    faulthandler.dump_traceback_later(20, exit=True)    # a deadlock ends the run
    try:
        with pytest.raises(KeyboardInterrupt):
            pl.run_two_stage(range(n), pl.ENC, stage("first"), stage("second"))
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGINT, old_handler)
    assert _stage_threads() == []
    calls_at_return = list(log)
    time.sleep(0.1)
    assert log == calls_at_return, "a stage ran after run_two_stage returned"
    after = log[log.index(("signal", at)) + 1:]
    firsts = [i for name, i in log if name == "first"]
    seconds = [i for name, i in log if name == "second"]
    assert firsts == list(range(1, len(firsts) + 1)) and len(firsts) < n
    assert seconds == list(range(1, len(seconds) + 1))
    assert sum(name == "second" for name, _ in after) <= 1
    assert sum(name == "first" for name, _ in after) <= pl._HANDOFF_BLOCKS + 2
