"""One protocol role per process: the authority, the owner, the receiver.

Run as ``python3 perfbench/roles.py <config.json>``; the config names the
role, the workload, the seed and the work directory.  The role rebuilds
the plan from the seed.  The authority sets up and exits.  The owner and
the receiver/verifier read message indices from standard input, one per
line, handle that message and answer ``done``; the driver alternates
between them, so only one of them works at a time and each keeps its own
caches.  Latencies of the warm-up messages are not kept.  At end of input
a role writes its latencies, failures, peak memory and, when traced, its
span summary to ``<workdir>/<role>.json``.

The calls follow the ``lcws`` command line: the authority runs
``ta-setup`` and ``ta-keygen``, the owner ``do-encrypt``, the receiver
``dr-decrypt`` (with ``--bandwidth`` on the link workload), then
``ta-challenge`` and ``dr-verify``.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from lcws import pipeline, policy, scheme, wire  # noqa: E402
from lcws.errors import PolicyNotSatisfiedError  # noqa: E402
from lcws.store import BlobStore, make_object_id  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter


def message_id(i: int) -> str:
    return f"m{i:05d}"


class Role:
    def __init__(self, config, tracer):
        self.tracer = tracer
        self.workdir = Path(config["workdir"])
        self.keydir = self.workdir / "keys"
        self.store_dir = self.workdir / "store"
        self.plan = workloads.build_plan(config["workload"], config["seed"],
                                         config["messages"])
        self.link = self.plan.workload.link
        self.latencies = {}
        self.failures = []
        self.attempted = 0
        self.schedules = []

    def serve(self, commands, replies):
        replies.write("ready\n")
        replies.flush()
        for line in commands:
            self.step(int(line))
            replies.write("done\n")
            replies.flush()

    def call(self, op_id, fn, *args):
        """Run one operation, as the root span of its trace when traced."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.operation(op_id, fn, *args)

    def timed(self, kind, i, fn, *args):
        """Run one operation; its latency is recorded only if it succeeds
        and the message is not a warm-up message."""
        self.attempted += 1
        op_id = f"{kind}:{i}"
        start = clock()
        try:
            result = self.call(op_id, fn, *args)
        except Exception as exc:  # every failure is counted, none stops the run
            self.fail(op_id, repr(exc))
            return None
        if i >= workloads.WARMUP_MESSAGES:
            self.latencies.setdefault(kind, []).append(clock() - start)
        return result

    def fail(self, op_id, reason):
        self.failures.append(f"{op_id}: {reason}")

    def result(self):
        return {
            "latencies": self.latencies,
            "failures": self.failures,
            "attempted": self.attempted,
            "schedules": self.schedules,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "caches": tracing.cache_stats(),
        }


class Authority(Role):
    def run(self):
        """Setup and key issuance, timed as a whole: everything the first timed
        operation depends on."""
        self.keydir.mkdir(exist_ok=True)
        self.attempted += 1
        start = clock()
        rng = random.Random(self.plan.ta_seed)
        pk, mk = scheme.setup(rng)
        ctx = scheme.encryption_context(mk)
        files = {
            "pk": wire.encode_public_key(pk),
            "mk": wire.encode_master_key(mk),
            "ctx": wire.encode_encryption_context(ctx),
        }
        for k, attrs in enumerate(self.plan.keys):
            files[f"sk{k}"] = wire.encode_secret_key(scheme.keygen(pk, mk, attrs, rng))
        wire.decode_public_key(files["pk"])
        wire.decode_master_key(files["mk"])
        wire.decode_encryption_context(files["ctx"])
        for k in range(len(self.plan.keys)):
            wire.decode_secret_key(files[f"sk{k}"])
        self.setup_s = clock() - start
        for name, data in files.items():
            path = self.keydir / f"{name}.lcws"
            if path.exists() and path.read_bytes() != data:
                self.fail("setup", f"{name} differs between set-ups of one seed")
            path.write_bytes(data)

    def result(self):
        return {**super().result(), "setup_s": self.setup_s}


class Owner(Role):
    def __init__(self, config, tracer):
        super().__init__(config, tracer)
        self.pk = wire.decode_public_key((self.keydir / "pk.lcws").read_bytes())
        self.ctx = wire.decode_encryption_context((self.keydir / "ctx.lcws").read_bytes())

    def step(self, i):
        msg = self.plan.messages[i]
        args = (workloads.plaintext(msg), msg.policy, message_id(i),
                random.Random(msg.seed ^ 0x5EED))
        if self.link is None:
            self.timed("encrypt", i, self.encrypt, *args)
            return
        result = self.timed("encrypt", i, self.encrypt_link, *args)
        if result is not None:
            self.schedules.append(schedule_stats(result, "tx"))

    def encrypt(self, data, policy_text, mid, rng):
        tree = policy.parse_policy(policy_text)
        store = BlobStore(self.store_dir)
        for ctb in scheme.encrypt_message(data, tree, self.pk, self.ctx, rng):
            store.put(make_object_id(mid, ctb.index), wire.encode_ctb(ctb, mid))

    def encrypt_link(self, data, policy_text, mid, rng):
        """Encrypt and put in stage one; the link carries each block in
        stage two, so the latency ends when the last block has crossed."""
        tree = policy.parse_policy(policy_text)
        store = BlobStore(self.store_dir)
        blocks = scheme.encrypt_message(data, tree, self.pk, self.ctx, rng)

        def produce(index, _):
            ctb = next(blocks)
            blob = wire.encode_ctb(ctb, mid)
            store.put(make_object_id(mid, ctb.index), blob)
            return blob

        return pipeline.run_pipeline(range(tree.depth), self.link, pipeline.ENC, produce)


class Receiver(Role):
    def __init__(self, config, tracer):
        super().__init__(config, tracer)
        self.key_files = [(self.keydir / f"sk{k}.lcws").read_bytes()
                          for k in range(len(self.plan.keys))]
        self.mk = wire.decode_master_key((self.keydir / "mk.lcws").read_bytes())

    def step(self, i):
        msg = self.plan.messages[i]
        mid = message_id(i)
        expected = workloads.plaintext(msg)
        got = self.timed("decrypt", i, self.decrypt, self.key_files[msg.receiver], mid,
                         self.link)
        if got is not None:
            output, commitment, schedule = got
            if schedule is not None:
                self.schedules.append(schedule_stats(schedule, "dec"))
            if output != expected:
                self.fail(f"decrypt:{i}", "output differs from the plaintext")
            else:
                self.check_verify(i, commitment, output, random.Random(msg.seed ^ 0xC4A1))
        if msg.denied is not None:
            self.check_denied(i, self.key_files[msg.denied], mid)

    def decrypt(self, key_file, mid, link):
        sk = wire.decode_secret_key(key_file)
        store = BlobStore(self.store_dir)
        blobs = [store.get(oid) for oid in store.list(mid)]
        state = scheme.DecryptionState(sk)

        def ingest(index, blob):
            ctb, _ = wire.decode_ctb(blob)
            state.add_block(ctb)

        schedule = None
        if link is None:
            for i, blob in enumerate(blobs):
                ingest(i + 1, blob)
        else:
            schedule = pipeline.run_pipeline(blobs, link, pipeline.DEC, ingest)
        return scheme.assemble_message(state, sk), state.commitment, schedule

    def verify(self, commitment, output, rng):
        v = scheme.make_challenge(commitment, self.mk, rng)
        return scheme.verify_message(output, v)

    def check_verify(self, i, commitment, output, rng):
        """The output must verify; outside the timed window, a copy with one
        flipped byte must not."""
        ok = self.timed("verify", i, self.verify, commitment, output, rng)
        if ok is None:
            return
        if not ok:
            self.fail(f"verify:{i}", "verify_message rejected the decrypted output")
        flipped = bytearray(output)
        flipped[rng.randrange(len(flipped))] ^= 0x01
        try:
            if self.call(f"tamper:{i}", self.verify, commitment, bytes(flipped), rng):
                self.fail(f"verify:{i}", "a flipped byte passed verification")
        except Exception as exc:
            self.fail(f"verify:{i}", f"tamper check raised {exc!r}")

    def check_denied(self, i, key_file, mid):
        """The denied receiver must end in PolicyNotSatisfiedError."""
        op_id = f"deny:{i}"
        self.attempted += 1
        try:
            self.call(op_id, self.decrypt, key_file, mid, None)
        except PolicyNotSatisfiedError:
            return
        except Exception as exc:
            self.fail(op_id, f"raised {exc!r} instead of PolicyNotSatisfiedError")
            return
        self.fail(op_id, "a receiver outside the policy decrypted the message")


ROLES = {"ta": Authority, "owner": Owner, "receiver": Receiver}


def schedule_stats(result, stage_two):
    """Overlap and stage-two idle time of one measured pipeline run."""
    rows = result.rows
    busy = sum(getattr(r, stage_two + "_end") - getattr(r, stage_two + "_start") for r in rows)
    return {"overlap_s": result.delta_t, "wait_s": getattr(rows[-1], stage_two + "_end") - busy}


def main(argv):
    config = json.loads(Path(argv[1]).read_text())
    tracer = tracing.Tracer() if config["traced"] else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            role = ROLES[config["role"]](config, tracer)
            if isinstance(role, Authority):
                role.run()
            else:
                role.serve(sys.stdin, sys.stdout)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = role.result()
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write_spans(config["spans_path"])
        name = config["role"] + config["suffix"]
        (role.workdir / f"{name}.json").write_text(json.dumps(out))
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
