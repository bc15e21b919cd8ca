"""Benchmark harness: sequential vs pipelined totals over a size sweep.

Per-block encryption and decryption durations are wall-clock measured on
real ciphertext blocks; transmission durations come from the link model
priced on the actual wire sizes.  Totals are then evaluated through the
exact pipeline recurrence, once per side, and medians over repeated runs
are reported, next to the quartiles of the times of the primitives that
dominate a block.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import algebra, pipeline, scheme, wire
from .pipeline import LinkModel
from .policy import MAX_NESTING, AccessTree, parse_policy
from .scheme import DecryptionState, EncryptionContext, PublicKey, SecretKey


def synthetic_policy(levels: int, leaves: int) -> Tuple[str, List[str]]:
    """Benchmark topology: a chain of OR gates, each holding a bundle of
    leaf attributes plus the next gate.

    Returns the policy text and a minimal "spread" attribute set holding
    one leaf per gate, which unlocks every level as its successor block
    arrives (the pipelined-decryption friendly key).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > MAX_NESTING:
        # a tree of L levels nests up to L parentheses deep
        raise ValueError(f"levels must be <= {MAX_NESTING}, the parser's deepest nesting")
    if levels == 1:
        if leaves != 1:
            raise ValueError("a depth-1 policy holds exactly one leaf")
        return "bench:0001", ["bench:0001"]
    gates = levels - 1
    if leaves < gates:
        raise ValueError(f"need at least {gates} leaves for {levels} levels")
    per_gate = [leaves // gates] * gates
    for i in range(leaves % gates):
        per_gate[i] += 1
    names = iter(f"bench:{i + 1:04d}" for i in range(leaves))
    bundles = [[next(names) for _ in range(count)] for count in per_gate]
    spread_key = [bundle[0] for bundle in bundles]

    last = bundles[-1]
    # a lone leaf in parentheses parses as a grouping, one level short
    text = f"(1 of ({last[0]}))" if len(last) == 1 else "(" + " OR ".join(last) + ")"
    for bundle in reversed(bundles[:-1]):
        text = "(" + " OR ".join(bundle) + " OR " + text + ")"
    return text, spread_key


def check_sizes(sizes: Sequence[int]) -> Sequence[int]:
    """The message sizes themselves when there is one or more, each of at
    least one byte, strictly increasing; a ValueError otherwise."""
    if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be one or more, each at least one byte,"
                         " strictly increasing")
    return sizes


@dataclass(frozen=True)
class BenchRow:
    size: int
    enc_seq: float
    enc_pipe: float
    enc_delta: float
    dec_seq: float
    dec_pipe: float
    dec_delta: float
    max_block_enc: float         # slowest single-block encryption (median)
    min_block_tx: float          # fastest single-block transmission


@dataclass(frozen=True)
class BenchReport:
    levels: int
    leaves: int
    runs: int
    rows: Tuple[BenchRow, ...]
    primitives: Dict[str, Tuple[float, float, float]]  # name -> quartiles, ms per call

    # (JSON key, BenchRow attribute) of each row field, in the order written
    _FIELDS = (("size_bytes", "size"), ("enc_tx_sequential_s", "enc_seq"),
               ("enc_tx_pipelined_s", "enc_pipe"), ("enc_tx_delta_s", "enc_delta"),
               ("tx_dec_sequential_s", "dec_seq"), ("tx_dec_pipelined_s", "dec_pipe"),
               ("tx_dec_delta_s", "dec_delta"), ("max_block_enc_s", "max_block_enc"),
               ("min_block_tx_s", "min_block_tx"))

    def write_json(self, path) -> None:
        """The rows, the sweep shape, and the machine and commit they ran on."""
        doc = {
            "levels": self.levels,
            "leaves": self.leaves,
            "runs": self.runs,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count(),
            "python": "%d.%d.%d" % sys.version_info[:3],
            "commit": _commit(),
            "rows": [{key: getattr(row, attr) for key, attr in self._FIELDS}
                     for row in self.rows],
            "primitives": {name: {"q1": q1, "median": median, "q3": q3, "unit": "ms"}
                           for name, (q1, median, q3) in self.primitives.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _commit() -> Optional[str]:
    """The git commit this source tree is checked out at, if it is in one."""
    # imported here: every benchmark role process imports this module, and
    # subprocess alone adds about half a MiB to its peak RSS
    import subprocess
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_stage_times(messages: Sequence[bytes], tree: AccessTree, pk: PublicKey,
                        ctx: EncryptionContext, sk: SecretKey, link: LinkModel,
                        rng: random.Random) -> List[Tuple[List[float], ...]]:
    """One full measured pass per message: encrypt (timed per block), price
    the wire bytes on the link, decrypt in arrival order (timed per block).
    Returns each message's per-block seconds as (enc, tx, dec) lists.

    The messages are interleaved block by block: block i of every message
    is encrypted back to back before block i + 1 of any, and likewise for
    decryption, so drift in machine speed lands on all messages alike and
    their times differ by the work their sizes add.  All messages' blocks
    are held until the pass ends."""
    clock = time.perf_counter
    enc_times: List[List[float]] = [[] for _ in messages]
    tx_times: List[List[float]] = [[] for _ in messages]
    dec_times: List[List[float]] = [[] for _ in messages]
    encoded: List[List[bytes]] = [[] for _ in messages]

    gens = [scheme.encrypt_message(message, tree, pk, ctx, rng) for message in messages]
    blocks = tree.depth                              # one block per level, any size
    outs: List[Optional[bytes]] = [None] * len(messages)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(blocks):
            for k, gen in enumerate(gens):
                t0 = clock()
                data = wire.encode_ctb(next(gen), "bench")
                enc_times[k].append(clock() - t0)
                tx_times[k].append(link.transmit_seconds(len(data)))
                encoded[k].append(data)

        states = [DecryptionState(sk) for _ in messages]
        for i in range(blocks):
            for k, state in enumerate(states):
                t0 = clock()
                ctb, _ = wire.decode_ctb(encoded[k][i])
                state.add_block(ctb)
                if i == blocks - 1:
                    outs[k] = scheme.assemble_message(state, sk)
                dec_times[k].append(clock() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    if outs != list(messages):
        raise RuntimeError("benchmark round trip mismatch")
    return list(zip(enc_times, tx_times, dec_times))


_PRIMITIVE_CALLS = 15
_VERIFY_MESSAGE_BYTES = 16 * 1024


def measure_primitives(rng: random.Random) -> Dict[str, Tuple[float, float, float]]:
    """First quartile, median and third quartile of the milliseconds per
    call, each call on a fresh input, of an attribute hash that misses the
    cache, a final exponentiation, a power of a target-group element
    without a table, the validation of a decoded source-group point, the
    check of a 16 KiB message against its verification tuple, the
    recording and normalisation of one fixed base's line table, a power of
    a plain source-group point, which takes the ladder, and a quotient of
    two pairings: on two Miller points walked in its own loop, and on two
    kept tables, as a chain unlock makes it on a key's d and d_hat and a
    leaf on two key components whose tables are kept."""
    q = algebra.FIELD_PRIME
    calls = _PRIMITIVE_CALLS
    g = algebra.generator()
    gt = algebra.pair(g, g ** algebra.random_nonzero_scalar(rng))

    def subgroup_point():
        return g ** algebra.random_nonzero_scalar(rng)

    d, d_hat = (subgroup_point().fixed_base() for _ in range(2))
    algebra.pair_ratio(d, g, d_hat, g)                   # records both tables

    def verification_case():
        message = rng.randbytes(_VERIFY_MESSAGE_BYTES)
        t = algebra.random_nonzero_scalar(rng)
        h = algebra.hash_to_g0(algebra.TAG_MESSAGE, message)
        return message, scheme.VerificationTuple(v1=h ** t, v2=g ** t)

    cases = {
        "hash_to_g0_uncached": (
            lambda name: algebra._hash_to_curve(algebra.TAG_ATTRIBUTE, name),
            [b"bench:primitive:%d" % rng.getrandbits(64) for _ in range(calls)]),
        "final_exponentiation": (
            algebra._final_exponentiation,
            [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(calls)]),
        "gt_pow": (
            lambda k: gt ** k,
            [algebra.random_nonzero_scalar(rng) for _ in range(calls)]),
        "g0_validate": (
            lambda data: algebra.G0Element.deserialize(data).validate(),
            [subgroup_point().serialize() for _ in range(calls)]),
        "verify_message": (
            lambda case: scheme.verify_message(*case),
            [verification_case() for _ in range(calls)]),
        "lines": (
            algebra._lines,
            [subgroup_point()._p for _ in range(calls)]),
        "g0_pow_one_use": (
            lambda case: case[0] ** case[1],
            [(subgroup_point(), algebra.random_nonzero_scalar(rng)) for _ in range(calls)]),
        "pair_ratio_one_use": (
            lambda case: algebra.pair_ratio(*case),
            [tuple(subgroup_point() for _ in range(4)) for _ in range(calls)]),
        "pair_ratio_kept": (
            lambda case: algebra.pair_ratio(case[0], d, case[1], d_hat),
            [(subgroup_point(), subgroup_point()) for _ in range(calls)]),
    }
    clock = time.perf_counter
    out = {}
    for name, (call, inputs) in cases.items():
        times = []
        for arg in inputs:
            t0 = clock()
            call(arg)
            times.append(clock() - t0)
        out[name] = tuple(1000 * t for t in statistics.quantiles(times, n=4))
    return out


def run_bench(sizes: Sequence[int], levels: int, leaves: int, link: LinkModel,
              runs: int = 5, seed: Optional[int] = None) -> BenchReport:
    """Sweep message sizes over the synthetic policy with its spread key;
    report median sequential and pipelined totals for both protocol sides.
    Sizes `check_sizes` refuses are refused before any set-up."""
    check_sizes(sizes)
    rng = random.Random(seed)
    policy_text, spread = synthetic_policy(levels, leaves)
    tree = parse_policy(policy_text)
    pk, mk = scheme.setup(rng)
    ctx = scheme.encryption_context(mk)
    sk = scheme.keygen(pk, mk, spread, rng)

    messages = {size: random.Random(rng.randrange(2 ** 32)).randbytes(size)
                for size in sizes}
    # warm hash and comb caches and the allocator at full buffer size
    measure_stage_times([messages[max(sizes)]], tree, pk, ctx, sk, link, rng)

    # each run measures every size, interleaved block by block, so bursts of
    # machine noise land on all sizes of a run rather than skewing one size
    by_size = {size: [] for size in sizes}
    for _ in range(runs):
        times = measure_stage_times([messages[size] for size in sizes],
                                    tree, pk, ctx, sk, link, rng)
        for size, sample in zip(sizes, times):
            by_size[size].append(sample)

    rows = []
    for size in sizes:
        # representative stage times: per-block medians across the runs, so a
        # scheduler spike hitting one block of one run cannot skew the totals
        enc, tx, dec = ([statistics.median(block) for block in zip(*stage)]
                        for stage in zip(*by_size[size]))
        enc_sched = pipeline.schedule(pipeline.ENC, enc, tx)
        dec_sched = pipeline.schedule(pipeline.DEC, tx, dec)
        rows.append(BenchRow(
            size=size,
            enc_seq=enc_sched.total_sequential,
            enc_pipe=enc_sched.total_pipelined,
            enc_delta=enc_sched.delta_t,
            dec_seq=dec_sched.total_sequential,
            dec_pipe=dec_sched.total_pipelined,
            dec_delta=dec_sched.delta_t,
            max_block_enc=max(enc),
            min_block_tx=min(tx),
        ))
    return BenchReport(levels=levels, leaves=leaves, runs=runs, rows=tuple(rows),
                       primitives=measure_primitives(rng))
