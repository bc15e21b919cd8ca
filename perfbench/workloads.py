"""Workload definitions: every input of a run is derived from the seed.

A plan lists the receivers' attribute sets and, per message, the policy,
the plaintext seed, the receiver who must open it and the receiver who
must be denied.  Plaintexts are generated from their seeds inside the role
processes, outside the timed window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from lcws import bench, policy
from lcws.pipeline import LinkModel

KIB = 1024
MIB = 1024 * KIB

# link: the paper's 10-level, 100-leaf configuration.
DEEP_POLICY, DEEP_SPREAD_KEY = bench.synthetic_policy(10, 100)
DEEP_RECEIVERS = 2

# link: ~105 KB wire blocks take 0.01 + 105e3 / 2.5 MiB/s ~ 50 ms to cross,
# between the per-block encrypt (~30 ms) and receive (~80 ms) times, so the
# upload is link-bound and the download compute-bound.
LINK = LinkModel(bandwidth=2.5 * MIB, latency=0.01)

# many-policies: wide keys drawn from a large attribute universe.
UNIVERSE = 4000
POPULATION = 4
KEY_WIDTH = 16
MAX_DEPTH = 5
MIN_LEAVES = 4
MAX_LEAVES = 12


@dataclass(frozen=True)
class Message:
    policy: str
    size: int
    seed: int
    receiver: int                  # index into Plan.keys; must decrypt
    denied: Optional[int] = None   # index into Plan.keys; must be refused


@dataclass(frozen=True)
class Workload:
    seconds_per_message: float     # typical wall time per message on a 2-vCPU Xeon
    link: Optional[LinkModel] = None


WORKLOADS = {
    "many-policies": Workload(0.67),
    "link": Workload(1.75, link=LINK),
}

MIN_MESSAGES = 12
# The first message of every pass fills the roles' caches and lazy tables;
# it is checked like every other message, but its latencies are not kept.
WARMUP_MESSAGES = 1


@dataclass(frozen=True)
class Plan:
    workload: Workload
    ta_seed: int
    keys: Tuple[Tuple[str, ...], ...]
    messages: Tuple[Message, ...]


def message_count(workload: Workload, seconds: float) -> int:
    """Timed messages per run: enough to fill about `seconds`, and never so
    few that no percentile has ten samples above it."""
    return max(MIN_MESSAGES, math.ceil(seconds / workload.seconds_per_message))


def plaintext(message: Message) -> bytes:
    return random.Random(message.seed).randbytes(message.size)


def build_plan(name: str, seed: int, n_messages: int) -> Plan:
    workload = WORKLOADS[name]
    rng = random.Random(f"lcws-perfbench:{name}:{seed}")
    ta_seed = rng.randrange(2 ** 63)
    if name == "link":
        keys = (tuple(DEEP_SPREAD_KEY),) * DEEP_RECEIVERS
        messages = [Message(DEEP_POLICY, MIB, rng.randrange(2 ** 63), i % DEEP_RECEIVERS)
                    for i in range(n_messages)]
    elif name == "many-policies":
        keys, messages = _many_policies(rng, n_messages)
    else:
        raise KeyError(name)
    return Plan(workload, ta_seed, keys, tuple(messages))


def _attribute(i: int) -> str:
    return f"attr:{i:04d}"


def _many_policies(rng: random.Random, n_messages: int):
    """Random AND / OR / k-of policies over a 4000-attribute universe.

    Each of a fixed population of wide keys holds KEY_WIDTH attributes.
    A message's receiver gets about half of the policy's leaves from its
    key, always including a satisfying set; the other leaves are drawn from
    the whole universe, so most owner-side attribute lookups are new.  One
    other key of the population, which the policy refuses, is the denied
    receiver.  Leaf counts follow a fixed cycle so that every seed sees the
    same mix of policy sizes; shapes, gates and attributes are random.
    """
    pool = rng.sample(range(UNIVERSE), POPULATION * KEY_WIDTH)
    keys = tuple(tuple(_attribute(a) for a in pool[k * KEY_WIDTH:(k + 1) * KEY_WIDTH])
                 for k in range(POPULATION))
    messages = []
    for i in range(n_messages):
        receiver = i % POPULATION
        leaves = MIN_LEAVES + i % (MAX_LEAVES - MIN_LEAVES + 1)
        while True:
            text = _random_policy(rng, keys[receiver], leaves)
            tree = policy.parse_policy(text)
            denied = next((j for j in range(POPULATION)
                           if j != receiver and not policy.satisfies(tree, keys[j])), None)
            if policy.satisfies(tree, keys[receiver]) and denied is not None:
                break
        messages.append(Message(text, 16 * KIB, rng.randrange(2 ** 63), receiver, denied))
    return keys, messages


def _capacity(depth: int) -> int:
    """Most leaves a subtree of at most `depth` levels can hold (arity <= 4)."""
    return 4 ** (depth - 1)


def _random_policy(rng: random.Random, key: Tuple[str, ...], n_leaves: int) -> str:
    """Policy text with exactly `n_leaves` leaves and at most MAX_DEPTH
    levels whose satisfying set lies inside `key`."""

    def shape(depth: int, leaves: int):
        if leaves == 1:
            return None
        below = _capacity(depth - 1)
        arity = rng.choice([a for a in range(2, min(4, leaves) + 1) if a * below >= leaves])
        while True:
            cuts = sorted(rng.sample(range(1, leaves), arity - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
            if max(parts) <= below:
                break
        kind = rng.random()
        if kind < 0.4:
            threshold = arity
        elif kind < 0.75 or arity == 2:
            threshold = 1
        else:
            threshold = rng.randint(2, arity - 1)
        return (threshold, [shape(depth - 1, p) for p in parts])

    def satisfying(node, chosen: bool, out: list):
        """Mark leaves of one random satisfying set as True."""
        if node is None:
            out.append(chosen)
            return
        threshold, children = node
        picked = set(rng.sample(range(len(children)), threshold)) if chosen else set()
        for n, child in enumerate(children):
            satisfying(child, n in picked, out)

    tree = shape(MAX_DEPTH, n_leaves)
    in_key = []
    satisfying(tree, True, in_key)
    from_key = iter(rng.sample(key, len(in_key)))
    leaves = iter([next(from_key) if must or rng.random() < 0.5
                   else _attribute(rng.randrange(UNIVERSE)) for must in in_key])

    def text(node) -> str:
        if node is None:
            return next(leaves)
        threshold, children = node
        parts = [text(c) for c in children]
        if threshold == len(parts):
            return "(" + " AND ".join(parts) + ")"
        if threshold == 1:
            return "(" + " OR ".join(parts) + ")"
        return f"({threshold} of (" + ", ".join(parts) + "))"

    return text(tree)
