#!/usr/bin/env python3
"""Drift-free A/B of two source trees, message by message.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload many-policies \\
        --seed 1 --messages 60 > ab.json

Each tree runs its own ``perfbench/roles.py``, which imports ``lcws`` from
that tree's ``src/``; nothing under ``perfbench/`` is edited.  One
authority per tree sets up the keys of the workload's plan.  Then one
owner and one receiver/verifier per tree take turns: for each message the
two owners encrypt it, in an order that alternates from one message to the
next, and then the two receivers decrypt and verify it in that same order.
So a slow spell of the machine lands on both trees alike.

The plan holds ``--messages`` timed messages after perfbench's warm-up
messages, whose latencies the roles do not keep; the count of those is read
from each tree's ``perfbench/workloads.py``, and the two trees must agree.
For encrypt, decrypt and verify the report gives the median and quartiles
of the per-message ratio change/parent and how many messages the change
won.  It also says whether
every stored ``.ctb`` file is byte-identical across the two trees.  A run of
one tree against itself (A/A) sizes the noise of the ratios.  Set-up runs
once per tree, outside the alternation, so its time is not reported.

The report, as JSON, is the whole of standard output; the set-up's own
output goes to standard error.  The exit status is 0 when the bytes match
and no operation failed, 1 when they do not, and 2 when the comparison
could not run or a role timed fewer or more messages than asked; every
role process is killed and reaped on any error or after ``TIMEOUT_S``
seconds.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

TREES = ("parent", "change")
KINDS = {"owner": ("encrypt",), "receiver": ("decrypt", "verify")}
TIMEOUT_S = 3600.0        # the whole comparison, set-up included


class ABError(RuntimeError):
    """The comparison could not run; no report is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--messages", type=int, required=True, help="timed messages, at least 1")
    args = p.parse_args(argv)
    if args.messages < 1:
        p.error("--messages must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "roles.py").is_file():
            p.error(f"{tree} holds no perfbench/roles.py")
    return args


def warmup_messages(root: Path):
    """``WARMUP_MESSAGES`` of the tree's perfbench/workloads.py, read without
    importing it (it imports that tree's ``lcws``)."""
    path = root / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "WARMUP_MESSAGES"):
            return ast.literal_eval(node.value)
    raise ABError(f"{path} sets no WARMUP_MESSAGES")


class Tree:
    """One source tree's roles, working in their own directory."""

    def __init__(self, root: Path, workdir: Path, args, warmup):
        self.root = root.resolve()
        self.workdir = workdir
        self.workdir.mkdir()
        self.base = {"workload": args.workload, "seed": args.seed,
                     "messages": warmup + args.messages, "traced": False,
                     "workdir": str(workdir), "suffix": "", "spans_path": None}
        self.procs = {}

    def command(self, role):
        """The role's command line, after the keys of `Runner.config` in
        perfbench/run.py."""
        path = self.workdir / f"{role}.config.json"
        path.write_text(json.dumps({**self.base, "role": role}))
        return [sys.executable, str(self.root / "perfbench" / "roles.py"), str(path)]

    def result(self, role):
        return json.loads((self.workdir / f"{role}.json").read_text())

    def set_up(self, timeout):
        proc = subprocess.run(self.command("ta"), cwd=self.root, stdout=sys.stderr,
                              timeout=timeout)
        if proc.returncode != 0:
            raise ABError(f"{self.root}: set-up exited with {proc.returncode}")

    def start(self, role):
        proc = self.procs[role] = subprocess.Popen(
            self.command(role), cwd=self.root, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if proc.stdout.readline() != "ready\n":
            raise ABError(f"{self.root}: {role} did not start")

    def step(self, role, i):
        proc = self.procs[role]
        proc.stdin.write(f"{i}\n")
        proc.stdin.flush()
        if proc.stdout.readline() != "done\n":
            raise ABError(f"{self.root}: {role} stopped at message {i}")

    def finish(self, role):
        proc = self.procs[role]
        proc.stdin.close()
        if proc.wait() != 0:
            raise ABError(f"{self.root}: {role} exited with {proc.returncode}")
        return self.result(role)

    def kill(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except BrokenPipeError:
                    pass

    def blocks(self):
        """The SHA-256 of each stored block, by its path in the store."""
        store = self.workdir / "store"
        return {str(f.relative_to(store)): hashlib.sha256(f.read_bytes()).hexdigest()
                for f in store.rglob("*.ctb")}


def run(args, scratch: Path):
    """Both trees' roles, message by message; returns each tree's role results."""
    roots = dict(zip(TREES, (args.parent, args.change)))
    warmups = {name: warmup_messages(root) for name, root in roots.items()}
    if warmups["parent"] != warmups["change"]:
        raise ABError(f"the trees keep different warm-up messages: {warmups}")
    warmup = warmups["parent"]
    trees = {name: Tree(root, scratch / name, args, warmup) for name, root in roots.items()}
    deadline = time.monotonic() + TIMEOUT_S
    watchdog = threading.Timer(TIMEOUT_S, lambda: [
        proc.kill() for tree in trees.values() for proc in list(tree.procs.values())])
    watchdog.start()
    try:
        results = {}
        for name, tree in trees.items():
            tree.set_up(max(1.0, deadline - time.monotonic()))
            results[name] = {"ta": tree.result("ta")}
        for role in KINDS:
            for tree in trees.values():
                tree.start(role)
        for i in range(warmup + args.messages):
            order = TREES if i % 2 == 0 else TREES[::-1]
            for role in KINDS:
                for name in order:
                    trees[name].step(role, i)
        for name, tree in trees.items():
            for role in KINDS:
                results[name][role] = tree.finish(role)
        return results, {name: tree.blocks() for name, tree in trees.items()}
    finally:
        watchdog.cancel()
        for tree in trees.values():
            tree.kill()


def ratios(parent, change, messages):
    """Median and quartiles of change/parent per message, and the change's wins."""
    if not len(parent) == len(change) == messages:
        raise ABError(f"timed {len(parent)} and {len(change)} messages, not {messages}")
    r = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(r, n=4) if len(r) > 1 else (r[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "won": sum(c < p for p, c in zip(parent, change)), "of": messages}


def report(args, results, blocks):
    failures = {name: [f for role in roles.values() for f in role["failures"]]
                for name, roles in results.items()}
    out = {"workload": args.workload, "seed": args.seed, "messages": args.messages,
           "parent": str(args.parent), "change": str(args.change)}
    for role, kinds in KINDS.items():
        for kind in kinds:
            lat = [results[name][role]["latencies"].get(kind, []) for name in TREES]
            out[kind] = ratios(*lat, args.messages)
    names = blocks["parent"].keys() | blocks["change"].keys()
    out["ctb_files"] = len(names)
    out["differing_ctb"] = sorted(n for n in names
                                  if blocks["parent"].get(n) != blocks["change"].get(n))
    out["identical_bytes"] = bool(names) and not out["differing_ctb"]
    out["failures"] = failures
    return out


def stop(signum, frame):
    """Turn SIGTERM into an exit that kills and reaps the role processes."""
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, stop)
    with tempfile.TemporaryDirectory(prefix="lcws-ab-") as scratch:
        try:
            results, blocks = run(args, Path(scratch))
            out = report(args, results, blocks)
        except (ABError, OSError, ValueError, SyntaxError,
                subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(out, indent=2))
    ok = out["identical_bytes"] and not any(out["failures"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
