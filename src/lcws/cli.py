"""Command line frontends for the four protocol roles.

Exit codes: 0 success, 2 policy or key failure, 3 I/O failure, 4 format
error.  All commands accept --seed for reproducible randomness.
"""

from __future__ import annotations

import functools
import hashlib
import random
import secrets
import sys
from pathlib import Path

import click

from . import bench as bench_mod
from . import pipeline as pipeline_mod
from . import scheme, wire
from .errors import DecodeError, PolicyNotSatisfiedError, PolicySyntaxError, StoreNotFoundError
from .policy import parse_policy
from .store import BlobStore, make_object_id

EXIT_POLICY = 2
EXIT_IO = 3
EXIT_FORMAT = 4


def _rng(seed):
    return random.Random(seed) if seed is not None else secrets.SystemRandom()


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


def _derive_message_id(message: bytes) -> str:
    return hashlib.sha256(b"lcws-message-id" + message).hexdigest()[:24]


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
    if not attr_set:
        raise click.UsageError("attribute list must be non-empty")
    pk = wire.decode_public_key(pk_path.read_bytes())
    mk = wire.decode_master_key(mk_path.read_bytes())
    sk = scheme.keygen(pk, mk, attr_set, _rng(seed))
    out_path.write_bytes(wire.encode_secret_key(sk))
    out_path.chmod(0o600)
    click.echo(f"wrote key for {len(attr_set)} attributes to {out_path}")


@main.command("ta-challenge")
@click.option("--mk", "mk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--store", "store_dir", type=click.Path(path_type=Path), required=True)
@click.option("--message-id", required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=None)
@_exit_codes
def ta_challenge(mk_path, store_dir, message_id, out_path, seed):
    """Fetch a stored message's commitment and issue a verification tuple."""
    mk = wire.decode_master_key(mk_path.read_bytes())
    store = BlobStore(store_dir)
    ctb, _ = wire.decode_ctb(store.get(make_object_id(message_id, 1)))
    if ctb.commitment is None:
        raise DecodeError("first block carries no commitment")
    v = scheme.make_challenge(ctb.commitment, mk, _rng(seed))
    out_path.write_bytes(wire.encode_verification_tuple(v))
    click.echo(f"wrote verification tuple to {out_path}")


@main.command("do-encrypt")
@click.argument("message_file", type=click.Path(exists=True, path_type=Path))
@click.option("--pk", "pk_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--enc-ctx", "ctx_path", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--policy", required=True, help="Access policy text.")
@click.option("--store", "store_dir", type=click.Path(path_type=Path), required=True)
@click.option("--message-id", default=None, help="Defaults to a digest of the plaintext.")
@click.option("--seed", type=int, default=None)
@_exit_codes
def do_encrypt(message_file, pk_path, ctx_path, policy, store_dir, message_id, seed):
    """Encrypt a file under a policy and upload blocks as they complete."""
    message = message_file.read_bytes()
    if not message:
        raise click.UsageError("empty message")
    pk = wire.decode_public_key(pk_path.read_bytes())
    ctx = wire.decode_encryption_context(ctx_path.read_bytes())
    tree = parse_policy(policy)
    store = BlobStore(store_dir)
    mid = message_id or _derive_message_id(message)

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
@click.option("--message-id", required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--bandwidth", type=float, default=None,
              help="Bytes/s; when set, each download also crosses a simulated link.")
@click.option("--latency", type=float, default=0.0, help="Simulated link latency, seconds.")
@_exit_codes
def dr_decrypt(sk_path, store_dir, message_id, out_path, bandwidth, latency):
    """Download, decrypt, and reassemble a stored message, decrypting each
    block while the next ones download."""
    sk = wire.decode_secret_key(sk_path.read_bytes())
    store = BlobStore(store_dir)
    object_ids = store.list(message_id)
    if not object_ids:
        raise StoreNotFoundError(message_id)
    link = None if bandwidth is None else pipeline_mod.LinkModel(bandwidth, latency)
    state = scheme.DecryptionState(sk)

    def download(index, object_id):
        blob = store.get(object_id)
        return blob if link is None else link.transmit(index, blob)

    def ingest(index, blob):
        ctb, _ = wire.decode_ctb(blob)
        state.add_block(ctb)

    pipeline_mod.run_two_stage(object_ids, pipeline_mod.DEC, download, ingest)
    held = state.data_blocks.keys() | state.pending_blocks.keys()
    for index in range(1, state.block_count + 1):
        if index not in held:
            raise StoreNotFoundError(make_object_id(message_id, index))
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
@click.option("--sizes", default="1,2,4,8,16", help="Message sizes in MiB, comma separated.")
@click.option("--levels", type=int, default=10)
@click.option("--leaves", type=int, default=100)
@click.option("--bandwidth", type=float, default=1048576.0, help="Simulated link bytes/s.")
@click.option("--latency", type=float, default=0.25, help="Simulated link latency, seconds.")
@click.option("--runs", type=int, default=5)
@click.option("--seed", type=int, default=None)
@click.option("--out-csv", type=click.Path(path_type=Path), required=True)
@click.option("--out-dat", type=click.Path(path_type=Path), default=None)
@_exit_codes
def bench(sizes, levels, leaves, bandwidth, latency, runs, seed, out_csv, out_dat):
    """Sweep message sizes and compare sequential vs pipelined totals."""
    size_list = [int(float(s) * 1048576) for s in sizes.split(",") if s.strip()]
    link = pipeline_mod.LinkModel(bandwidth=bandwidth, latency=latency)
    report = bench_mod.run_bench(size_list, levels, leaves, link, runs=runs, seed=seed)
    report.write_csv(out_csv)
    if out_dat is not None:
        report.write_dat(out_dat)
    for row in report.rows:
        click.echo(
            f"size={row.size} enc-tx: seq={row.enc_seq:.3f}s pipe={row.enc_pipe:.3f}s "
            f"delta={row.enc_delta:.3f}s | tx-dec: seq={row.dec_seq:.3f}s "
            f"pipe={row.dec_pipe:.3f}s delta={row.dec_delta:.3f}s"
        )


if __name__ == "__main__":
    main()
