#!/usr/bin/env python3
"""Wall-clock benchmark of the lcws protocol roles.

    python3 perfbench/run.py --workload link --seed 1 --seconds 40 --trace 0

Runs the authority, owner and receiver/verifier roles of one workload, each
in its own process and one after another, on inputs made from the seed.
Load is a closed loop with one client: each operation starts when the
previous one has ended.  The number of messages is fixed per workload so
that a run takes about ``--seconds`` on a 2-vCPU Xeon; a fixed count keeps
every seed's memory and percentiles comparable when the machine's speed
drifts.  The first message warms the roles' caches and is not timed.
Every output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and the run's
details.

``--trace 0`` reports the end-to-end metrics.  A ``*_tail_s`` metric is the
highest whole percentile with at least ten samples above it; the details
line names it.  ``error_rate`` is in the details line; the metric
``success_rate`` is one minus it, so that no reported metric is zero.

``--trace 1`` runs the workload three times, each on the warm-up message
and a third of the timed messages: untraced, with every public layer
function wrapped in a span, and untraced again.  It reports per-layer
metrics per message of the traced pass: calls, self time (span time minus
child spans), counters, cache hit ratios, and the overlap and stage-two
idle time of ``pipeline.run_pipeline`` (zero on workloads that do not run
it).  ``trace.overhead`` is the traced operation
time over the mean of the two untraced passes around it, which cancels a
steady drift.  Spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 5            # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0        # a run must end well inside 180 s

SPAN_CALLS_AND_S = ("algebra.pair", "algebra.g0_pow", "algebra.gt_pow",
                    "algebra.g0_decode", "algebra.hash_to_g0")
SPAN_S = ("algebra.kdf_mask", "algebra.xor_bytes", "policy.parse_policy",
          "policy.partition_levels", "scheme.keygen", "scheme.begin_encryption",
          "scheme.encrypt_block", "scheme.add_block", "scheme.decrypt_block",
          "scheme.assemble_message", "scheme.make_challenge", "scheme.verify_message",
          "wire.encode_ctb", "wire.decode_ctb", "wire.decode_secret_key",
          "store.put", "store.get")
UNLOCKS = ("root", "gate", "chain")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import lcws from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lcws" / "__init__.py").is_file():
        raise BenchError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lcws
    if Path(lcws.__file__).resolve().parent != (src / "lcws").resolve():
        raise BenchError(f"imported lcws from {lcws.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """Highest whole percentile with at least ten samples above it
    (nearest rank), and its value."""
    ordered = sorted(values)
    n = len(ordered)
    p = max(0, (100 * (n - 10)) // n)
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


# ---------------------------------------------------------------------------
# role processes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"

    def remaining(self, what):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time before {what}")
        return left

    def config(self, role, messages, traced, suffix=""):
        spans = None
        if traced:
            OUT.mkdir(exist_ok=True)
            spans = str(OUT / f"spans-{self.workload}-seed{self.seed}-{role}.jsonl")
        config = {"role": role, "workload": self.workload, "seed": self.seed,
                  "messages": messages, "traced": traced, "workdir": str(self.workdir),
                  "suffix": suffix, "spans_path": spans}
        path = self.workdir / f"{role}{suffix}.config.json"
        path.write_text(json.dumps(config))
        return [sys.executable, str(HERE / "roles.py"), str(path)]

    def result(self, name):
        return json.loads((self.workdir / f"{name}.json").read_text())

    def run_pass(self, messages, traced, setup_reps):
        """Authority set-ups one after another, then the owner and the
        receiver/verifier taking turns, one message each."""
        import workloads
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        roles = {"ta": []}
        for r in range(setup_reps):
            cmd = self.config("ta", messages, traced, f"-{r}")
            try:
                proc = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                                      timeout=self.remaining("set-up"))
            except subprocess.TimeoutExpired:
                raise BenchError("set-up did not finish in time") from None
            if proc.returncode != 0:
                raise BenchError(f"set-up exited with {proc.returncode}")
            roles["ta"].append(self.result(f"ta-{r}"))

        procs = {}
        watchdog = threading.Timer(self.remaining("the owner and receiver"),
                                   lambda: [p.kill() for p in procs.values()])
        try:
            watchdog.start()
            for role in ("owner", "receiver"):
                procs[role] = subprocess.Popen(self.config(role, messages, traced), cwd=ROOT,
                                               stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                               text=True)
                if procs[role].stdout.readline() != "ready\n":
                    raise BenchError(f"{role} did not start")
            for i in range(messages):
                for role in ("owner", "receiver"):
                    proc = procs[role]
                    proc.stdin.write(f"{i}\n")
                    proc.stdin.flush()
                    if proc.stdout.readline() != "done\n":
                        raise BenchError(f"{role} stopped at message {i}")
            for role, proc in procs.items():
                proc.stdin.close()
                if proc.wait() != 0:
                    raise BenchError(f"{role} exited with {proc.returncode}")
                roles[role] = self.result(role)
        except BrokenPipeError:
            raise BenchError("a role process ended early") from None
        finally:
            watchdog.cancel()
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                for pipe in (proc.stdin, proc.stdout):
                    if not pipe.closed:
                        try:
                            pipe.close()
                        except BrokenPipeError:
                            pass

        stored = sum(f.stat().st_size for f in (self.workdir / "store").rglob("*.ctb"))
        plan = workloads.build_plan(self.workload, self.seed, messages)
        roles["expansion"] = stored / sum(m.size for m in plan.messages)
        return roles

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def processes(roles):
    return roles["ta"] + [roles["owner"], roles["receiver"]]


def tally(passes):
    """Operations attempted and failed; an operation can fail several checks."""
    attempted = sum(p["attempted"] for roles in passes for p in processes(roles))
    failures = [[f for p in processes(roles) for f in p["failures"]] for roles in passes]
    failed = sum(len({f.split(": ", 1)[0] for f in fs}) for fs in failures)
    return attempted, failed, [f for fs in failures for f in fs]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(roles, details):
    lat = {**roles["owner"]["latencies"], **roles["receiver"]["latencies"]}
    metrics = {"setup_s": (statistics.median(t["setup_s"] for t in roles["ta"]), "s")}
    for kind in ("encrypt", "decrypt"):
        values = lat.get(kind)
        if not values:
            raise BenchError(f"no {kind} operation succeeded")
        p, value = tail(values)
        metrics[f"{kind}_p50_s"] = (statistics.median(values), "s")
        metrics[f"{kind}_tail_s"] = (value, "s")
        details[f"{kind}_tail_percentile"] = p
    if not lat.get("verify"):
        raise BenchError("no verify operation succeeded")
    metrics["verify_p50_s"] = (statistics.median(lat["verify"]), "s")
    details["latencies_s"] = {kind: [round(v, 4) for v in values] for kind, values in lat.items()}
    metrics["peak_rss_mib"] = (max(p["peak_rss_kib"] for p in processes(roles)) / 1024, "MiB")
    return metrics


def per_layer(traced, untraced, n):
    """Per-message layer metrics of the traced pass of n messages; `untraced`
    are the passes run before and after it, whose mean operation time is
    the base of the tracing overhead."""
    calls, self_s, counts = Counter(), Counter(), Counter()
    for p in processes(traced):
        calls.update(p["trace"]["calls"])
        self_s.update(p["trace"]["self_s"])
        counts.update(p["trace"]["counts"])
    metrics = {}
    for name in SPAN_CALLS_AND_S:
        metrics[name + ".calls"] = (calls[name] / n, "count")
        metrics[name + ".s"] = (self_s[name] / n, "s")
    for name in SPAN_S:
        metrics[name + ".s"] = (self_s[name] / n, "s")
    metrics["scheme.decrypt_leaf.calls"] = (calls["scheme.decrypt_leaf"] / n, "count")
    for kind in UNLOCKS:
        metrics["scheme.unlock." + kind] = (counts["scheme.unlock." + kind] / n, "count")
    for cache in ("comb_cache", "hash_cache"):
        stats = [p["caches"][cache] for p in processes(traced) if cache in p["caches"]]
        if stats:
            lookups = sum(s["lookups"] for s in stats)
            hits = sum(s["hits"] for s in stats)
            metrics[f"algebra.{cache}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["wire.expansion"] = (traced["expansion"], "ratio")
    metrics["store.bytes"] = (counts["store.bytes"] / n, "B")
    for side, role, wait in (("upload", "owner", "tx_wait_s"),
                             ("download", "receiver", "dec_wait_s")):
        rows = traced[role]["schedules"]
        metrics[f"pipeline.{side}.overlap_s"] = (
            sum(r["overlap_s"] for r in rows) / n, "s")
        metrics[f"pipeline.{side}.{wait}"] = (sum(r["wait_s"] for r in rows) / n, "s")

    def op_time(roles):
        lat = {**roles["owner"]["latencies"], **roles["receiver"]["latencies"]}
        return sum(sum(lat.get(k, [])) for k in ("encrypt", "decrypt", "verify"))

    base = statistics.mean(op_time(roles) for roles in untraced)
    if not base:
        raise BenchError("no untraced operation succeeded")
    metrics["trace.overhead"] = (op_time(traced) / base, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu_model(), "git_commit": git_commit(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload_name, seed, n, trace, deadline):
    """Run one workload on n timed messages after the warm-up ones (a third
    of them per pass when traced); return (attempted, failed, metrics, details)."""
    import workloads
    runner = Runner(workload_name, seed, deadline)
    try:
        if trace:
            n = workloads.WARMUP_MESSAGES + max(1, n // 3)
            passes = [runner.run_pass(n, traced, 1) for traced in (False, True, False)]
        else:
            n = workloads.WARMUP_MESSAGES + n
            passes = [runner.run_pass(n, False, SETUP_REPS)]
    finally:
        runner.cleanup()
    attempted, failed, failures = tally(passes)
    details = {"messages": n, "warmup_messages": workloads.WARMUP_MESSAGES,
               "error_rate": failed / attempted, "failures": failures[:20]}
    try:
        if trace:
            metrics = per_layer(passes[1], [passes[0], passes[2]], n)
        else:
            metrics = end_to_end(passes[0], details)
            metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
    except BenchError as exc:
        raise BenchError(f"{exc}; first failures: {failures[:3]}") from None
    return attempted, failed, metrics, details


def stop(signum, frame):
    """Turn SIGTERM into an exit that runs the clean-up of the role processes."""
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, stop)
    try:
        import_program()
        import workloads
        workload = workloads.WORKLOADS.get(args.workload)
        if workload is None:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        env = environment(args)
        attempted, failed, metrics, details = measure(
            args.workload, args.seed, workloads.message_count(workload, args.seconds),
            args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
