"""File-backed object store standing in for the semi-trusted cloud server.

The store holds opaque ciphertext bytes keyed by "message-id/block-index"
object ids.  It never sees key material.  Writes are atomic (temp file
plus rename) so a reader cannot observe a half-written block.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path
from typing import List

from .errors import StoreNotFoundError

_ID_RE = re.compile(r"[A-Za-z0-9_-]+")
# a block index as make_object_id spells it, and no other way: one object per block
_INDEX_RE = re.compile(r"[0-9]{5}|[1-9][0-9]{5,}")


def check_message_id(message_id: str) -> str:
    """The id itself when it can name a message folder in the store; a
    ValueError otherwise."""
    if not _ID_RE.fullmatch(message_id):
        raise ValueError(f"bad message id {message_id!r}")
    return message_id


def make_object_id(message_id: str, index: int) -> str:
    return f"{message_id}/{index:05d}"


class BlobStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, object_id: str) -> Path:
        message_id, _, index = object_id.partition("/")
        if not _INDEX_RE.fullmatch(index):
            raise ValueError(f"bad object id {object_id!r}")
        return self.root / check_message_id(message_id) / f"{index}.ctb"

    def put(self, object_id: str, data: bytes) -> None:
        path = self._path(object_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, object_id: str) -> bytes:
        path = self._path(object_id)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise StoreNotFoundError(object_id) from None

    def delete(self, object_id: str) -> None:
        """Remove one object; one that is not there is no error."""
        self._path(object_id).unlink(missing_ok=True)

    def list(self, message_id: str) -> List[str]:
        """Object ids for one message, in block-index order."""
        folder = self.root / check_message_id(message_id)
        if not folder.is_dir():
            raise StoreNotFoundError(message_id)
        stems = [p.stem for p in folder.iterdir()
                 if p.suffix == ".ctb" and _INDEX_RE.fullmatch(p.stem)]
        return [f"{message_id}/{stem}" for stem in sorted(stems, key=int)]
