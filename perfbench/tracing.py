"""Span recorder that wraps the program's public functions from outside.

Each wrapped call records a span: its name, start, end, parent span and
the operation it belongs to.  Spans stay in memory until the role process
ends.  Wrappers are installed on the names callers look up (``scheme``
imports ``pair`` by name, so ``scheme.pair`` is wrapped as well as
``algebra.pair``) and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

from lcws import algebra, policy, scheme, wire
from lcws.scheme import ChainUnlock, GateUnlock, RootUnlock
from lcws.store import BlobStore

_UNLOCK_KINDS = {RootUnlock: "root", GateUnlock: "gate", ChainUnlock: "chain"}


class Tracer:
    """In-memory span log plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []            # (span_id, parent_id, op_id, name, start, end, self_s)
        self.counts = defaultdict(int)
        self.op_id = None
        self._op_span = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1][0] if stack else self._op_span
        frame = [self._new_id(), 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.spans.append((frame[0], parent, self.op_id, name, start, end,
                                   duration - frame[1]))

    def operation(self, op_id, fn, *args, **kwargs):
        """Run one benchmark operation as the root span of its layer spans."""
        self.op_id = op_id
        self._op_span = self._new_id()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append((self._op_span, 0, op_id, "op." + op_id.split(":")[0],
                                   start, end, 0.0))
            self._op_span = 0

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, name, fn, count=None):
        """Wrap fn in a span; `count(result, *args)` updates the counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(result, *args, **kwargs)
            return result
        return wrapper

    def _wrap_names(self, name, modules, attr, count=None):
        """Wrap one function under every module name that callers use."""
        original = getattr(modules[0], attr)
        wrapper = self._wrap_function(name, original, count)
        for module in modules:
            self._patch(module, attr, wrapper)

    def install(self):
        counts = self.counts

        def count_unlock(result, ctb, sk, unlock):
            counts["scheme.unlock." + _UNLOCK_KINDS[type(unlock)]] += 1

        def count_put(result, store, object_id, data):
            counts["store.bytes"] += len(data)

        def count_get(result, store, object_id):
            counts["store.bytes"] += len(result)

        self._wrap_names("algebra.pair", [algebra, scheme], "pair")
        self._wrap_names("algebra.hash_to_g0", [algebra, scheme], "hash_to_g0")
        self._wrap_names("algebra.kdf_mask", [algebra, scheme], "kdf_mask")
        self._wrap_names("algebra.xor_bytes", [algebra, scheme], "xor_bytes")
        self._wrap_names("policy.parse_policy", [policy], "parse_policy")
        self._wrap_names("policy.partition_levels", [policy, scheme], "partition_levels")
        for attr in ("keygen", "begin_encryption", "encrypt_block", "decrypt_leaf",
                     "assemble_message", "make_challenge", "verify_message"):
            self._wrap_names("scheme." + attr, [scheme], attr)
        self._wrap_names("scheme.decrypt_block", [scheme], "decrypt_block", count_unlock)
        for attr in ("encode_ctb", "decode_ctb", "decode_secret_key"):
            self._wrap_names("wire." + attr, [wire], attr)

        G0, GT = algebra.G0Element, algebra.GTElement
        self._patch(G0, "__pow__", self._wrap_function("algebra.g0_pow", G0.__pow__))
        self._patch(GT, "__pow__", self._wrap_function("algebra.gt_pow", GT.__pow__))
        decode = G0.__dict__["deserialize"].__func__
        self._patch(G0, "deserialize",
                    classmethod(self._wrap_function("algebra.g0_decode", decode)))
        self._patch(scheme.DecryptionState, "add_block",
                    self._wrap_function("scheme.add_block", scheme.DecryptionState.add_block))
        self._patch(BlobStore, "put", self._wrap_function("store.put", BlobStore.put, count_put))
        self._patch(BlobStore, "get", self._wrap_function("store.get", BlobStore.get, count_get))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Calls and self time per span name, plus the counters."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for _, _, _, name, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(self.counts)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, op_id, name, start, end, _ in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")


def cache_stats():
    """Hits and lookups of the program's comb-table and hash caches, read
    through ``cache_info()``; a cache that no longer exists is left out."""
    out = {}
    for key, attr in (("comb_cache", "_comb_table"), ("hash_cache", "_hash_to_point")):
        info = getattr(getattr(algebra, attr, None), "cache_info", None)
        if info is not None:
            ci = info()
            out[key] = {"hits": ci.hits, "lookups": ci.hits + ci.misses}
    return out
