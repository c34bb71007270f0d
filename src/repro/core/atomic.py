"""Crash-safe file replacement, shared by every writer of a durable file.

:func:`atomic_write` stages the bytes as ``<path>.tmp.<pid>``, fsyncs them,
renames over ``path`` and fsyncs the directory: a reader sees the previous
file or the new one, never a torn write. A write that fails removes its tmp
file and leaves ``path`` as it was. The result cache and every basis file
(:func:`repro.core.basis_store.write_basis_file`) write through it.
"""

from __future__ import annotations

import contextlib
import os
from typing import BinaryIO, Iterator


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Open a staging file for ``path``; on a clean exit it replaces ``path``."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            yield handle
            handle.flush()
            # fsync before the rename: os.replace is atomic in the namespace
            # but says nothing about the *data* — a crash after the rename
            # could otherwise leave the final name pointing at a truncated
            # payload.
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # A failed write (disk full) must not leave a partial tmp file
        # consuming exactly the space that is already scarce.
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    try:
        # Persist the rename itself (the directory entry).
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # not supported on this platform/filesystem; best effort
