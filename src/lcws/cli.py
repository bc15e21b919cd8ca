"""Command line frontends for the four protocol roles.

Exit codes: 0 success, 2 policy or key failure, 3 I/O failure, 4 format
error.  All commands accept --seed for reproducible randomness.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import random
import sys
from pathlib import Path

import click

from . import bench as bench_mod
from . import pipeline as pipeline_mod
from . import scheme, wire
from .errors import DecodeError, PolicyNotSatisfiedError, PolicySyntaxError, StoreNotFoundError
from .policy import check_attributes, parse_policy
from .store import BlobStore, check_message_id, make_object_id

EXIT_POLICY = 2
EXIT_IO = 3
EXIT_FORMAT = 4
_LINK_OPTIONS = "'--bandwidth' / '--latency'"


def _rng(seed):
    return None if seed is None else random.Random(seed)


def _usage(fn, *args, hint=None):
    """fn(*args), a ValueError or OverflowError of which is a usage error
    (exit 2) of the options `hint`, or of the parameter whose callback this is."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        raise click.BadParameter(str(exc), param_hint=hint) from None


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (PolicyNotSatisfiedError, PolicySyntaxError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_POLICY)
        except StoreNotFoundError as exc:
            click.echo(f"error: not found: {exc}", err=True)
            sys.exit(EXIT_IO)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except DecodeError as exc:
            click.echo(f"error: malformed input: {exc}", err=True)
            sys.exit(EXIT_FORMAT)
    return wrapper


def _parse_sizes(ctx, param, value):
    """Message sizes in MiB, comma separated, as byte counts."""
    sizes = _usage(lambda: [int(float(s) * 1048576) for s in value.split(",") if s.strip()])
    return _usage(bench_mod.check_sizes, sizes)


def _check_message_id(ctx, param, value):
    return None if value is None else _usage(check_message_id, value)


def _derive_message_id(message: bytes) -> str:
    return hashlib.sha256(b"lcws-message-id" + message).hexdigest()[:24]


def _decode_stored(blob: bytes, object_id: str) -> scheme.CiphertextBlock:
    """The block read from `object_id`, which must name the message id and
    the index the block carries."""
    ctb, message_id = wire.decode_ctb(blob)
    carried = make_object_id(message_id, ctb.index)
    if carried != object_id:
        raise DecodeError(f"block {carried!r} stored as {object_id!r}")
    return ctb


@click.group()
def main():
    """Level-partitioned CP-ABE with pipelined block transfer."""


@main.command("ta-setup")
@click.option("--out-dir", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=None, help="Deterministic randomness (testing only).")
@_exit_codes
def ta_setup(out_dir: Path, seed):
    """Generate public parameters, master key, and the owner context."""
    rng = _rng(seed)
    pk, mk = scheme.setup(rng)
    ctx = scheme.encryption_context(mk)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "pk.lcws").write_bytes(wire.encode_public_key(pk))
    mk_path = out_dir / "mk.lcws"
    mk_path.write_bytes(wire.encode_master_key(mk))
    mk_path.chmod(0o600)
    ctx_path = out_dir / "enc-ctx.lcws"
    ctx_path.write_bytes(wire.encode_encryption_context(ctx))
    ctx_path.chmod(0o600)
    click.echo(f"wrote pk.lcws, mk.lcws, enc-ctx.lcws to {out_dir}")


@main.command("ta-keygen")
@click.option("--pk", "pk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--mk", "mk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--attrs", required=True, help="Comma-separated attribute list.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=None)
@_exit_codes
def ta_keygen(pk_path, mk_path, attrs, out_path, seed):
    """Issue a receiver key for an attribute set."""
    attr_set = {a.strip() for a in attrs.split(",") if a.strip()}
    _usage(check_attributes, attr_set, hint="'--attrs'")
    pk = wire.decode_public_key(pk_path.read_bytes())
    mk = wire.decode_master_key(mk_path.read_bytes())
    sk = scheme.keygen(pk, mk, attr_set, _rng(seed))
    out_path.write_bytes(wire.encode_secret_key(sk))
    out_path.chmod(0o600)
    click.echo(f"wrote key for {len(attr_set)} attributes to {out_path}")


@main.command("ta-challenge")
@click.option("--mk", "mk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--store", "store_dir", type=click.Path(path_type=Path), required=True)
@click.option("--message-id", required=True, callback=_check_message_id)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=None)
@_exit_codes
def ta_challenge(mk_path, store_dir, message_id, out_path, seed):
    """Fetch a stored message's commitment and issue a verification tuple."""
    mk = wire.decode_master_key(mk_path.read_bytes())
    store = BlobStore(store_dir)
    object_id = make_object_id(message_id, 1)
    ctb = _decode_stored(store.get(object_id), object_id)
    v = scheme.make_challenge(ctb.commitment, mk, _rng(seed))
    out_path.write_bytes(wire.encode_verification_tuple(v))
    click.echo(f"wrote verification tuple to {out_path}")


@main.command("do-encrypt")
@click.argument("message_file", type=click.Path(exists=True, path_type=Path))
@click.option("--pk", "pk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--enc-ctx", "ctx_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--policy", required=True, help="Access policy text.")
@click.option("--store", "store_dir", type=click.Path(path_type=Path), required=True)
@click.option("--message-id", default=None, callback=_check_message_id,
              help="Defaults to a digest of the plaintext.")
@click.option("--seed", type=int, default=None)
@_exit_codes
def do_encrypt(message_file, pk_path, ctx_path, policy, store_dir, message_id, seed):
    """Encrypt a file under a policy and upload blocks as they complete."""
    message = message_file.read_bytes()
    if not message:
        raise click.UsageError("empty message")
    tree = parse_policy(policy)
    pk = wire.decode_public_key(pk_path.read_bytes())
    ctx = wire.decode_encryption_context(ctx_path.read_bytes())
    store = BlobStore(store_dir)
    mid = message_id or _derive_message_id(message)
    # a message stored under this id before must leave no object but the
    # new one's blocks
    keep = {make_object_id(mid, i) for i in range(1, tree.depth + 1)}
    with contextlib.suppress(StoreNotFoundError):
        for object_id in store.list(mid):
            if object_id not in keep:
                store.delete(object_id)

    def encode(index, ctb):
        return make_object_id(mid, ctb.index), wire.encode_ctb(ctb, mid)

    def upload(index, object_blob):
        store.put(*object_blob)

    blocks = scheme.encrypt_message(message, tree, pk, ctx, _rng(seed))
    count = len(pipeline_mod.run_two_stage(blocks, pipeline_mod.ENC, encode, upload).rows)
    click.echo(mid)
    click.echo(f"uploaded {count} blocks", err=True)


@main.command("dr-decrypt")
@click.option("--sk", "sk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--store", "store_dir", type=click.Path(path_type=Path), required=True)
@click.option("--message-id", required=True, callback=_check_message_id)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--bandwidth", type=float, default=None,
              help="Bytes/s; when set, each download also crosses a simulated link.")
@click.option("--latency", type=float, default=None,
              help="Simulated link latency, seconds; needs --bandwidth.")
@_exit_codes
def dr_decrypt(sk_path, store_dir, message_id, out_path, bandwidth, latency):
    """Download, decrypt, and reassemble a stored message, decrypting each
    block while the next ones download."""
    if bandwidth is None and latency is not None:
        raise click.BadParameter("a latency needs --bandwidth", param_hint="'--latency'")
    link = None if bandwidth is None else _usage(pipeline_mod.LinkModel, bandwidth,
                                                 latency or 0.0, hint=_LINK_OPTIONS)
    sk = wire.decode_secret_key(sk_path.read_bytes())
    store = BlobStore(store_dir)
    object_ids = store.list(message_id)
    if not object_ids:
        raise StoreNotFoundError(message_id)
    state = scheme.DecryptionState(sk)

    def download(index, object_id):
        blob = store.get(object_id)
        return blob if link is None else link.transmit(index, blob)

    def ingest(index, blob):
        state.add_block(_decode_stored(blob, object_ids[index - 1]))

    pipeline_mod.run_two_stage(object_ids, pipeline_mod.DEC, download, ingest)
    for index in range(1, state.block_count + 1):
        object_id = make_object_id(message_id, index)
        if object_id not in object_ids:
            raise StoreNotFoundError(object_id)
    message = scheme.assemble_message(state, sk)
    out_path.write_bytes(message)
    click.echo(f"wrote {len(message)} bytes to {out_path}")


@main.command("dr-verify")
@click.argument("message_file", type=click.Path(exists=True, path_type=Path))
@click.option("--v", "v_path", type=click.Path(exists=True, path_type=Path), required=True)
@_exit_codes
def dr_verify(message_file, v_path):
    """Check a decrypted file against a verification tuple; prints True/False."""
    v = wire.decode_verification_tuple(v_path.read_bytes())
    ok = scheme.verify_message(message_file.read_bytes(), v)
    click.echo("True" if ok else "False")
    if not ok:
        sys.exit(EXIT_POLICY)


@main.command("bench")
@click.option("--sizes", default="1,2,4,8,16", callback=_parse_sizes,
              help="Message sizes in MiB, comma separated, increasing.")
@click.option("--levels", type=int, default=10)
@click.option("--leaves", type=int, default=100)
@click.option("--bandwidth", type=float, default=1048576.0, help="Simulated link bytes/s.")
@click.option("--latency", type=float, default=0.25, help="Simulated link latency, seconds.")
@click.option("--runs", type=click.IntRange(min=1), default=5)
@click.option("--seed", type=int, default=None)
@click.option("--json", "json_path", type=click.Path(path_type=Path), required=True,
              help="Report: the rows, the primitive timings, nproc, the Python version"
                   " and the commit.")
@_exit_codes
def bench(sizes, levels, leaves, bandwidth, latency, runs, seed, json_path):
    """Sweep message sizes and compare sequential vs pipelined totals."""
    _usage(bench_mod.synthetic_policy, levels, leaves, hint="'--levels' / '--leaves'")
    link = _usage(pipeline_mod.LinkModel, bandwidth, latency, hint=_LINK_OPTIONS)
    report = bench_mod.run_bench(sizes, levels, leaves, link, runs=runs, seed=seed)
    report.write_json(json_path)
    for row in report.rows:
        click.echo(
            f"size={row.size} enc-tx: seq={row.enc_seq:.3f}s pipe={row.enc_pipe:.3f}s "
            f"delta={row.enc_delta:.3f}s | tx-dec: seq={row.dec_seq:.3f}s "
            f"pipe={row.dec_pipe:.3f}s delta={row.dec_delta:.3f}s"
        )
    click.echo("primitives (median): " + " ".join(
        f"{name}={median:.2f}ms" for name, (_, median, _) in report.primitives.items()))


if __name__ == "__main__":
    main()
