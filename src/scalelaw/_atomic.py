"""The one atomic file write: every output file and cache entry goes through it."""

from __future__ import annotations

import contextlib
import os
import stat
from pathlib import Path
from typing import Iterable

# a new file, never an existing one; O_BINARY on Windows alone
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def write_atomic(
    path: str | Path, chunks: Iterable[str] | Iterable[bytes], binary: bool = False
) -> None:
    """Write the chunks to path atomically: temp file in the same directory, then rename.

    The chunks are written one at a time, so the caller need not build the
    whole file in memory: text in text mode, or bytes-like objects with
    ``binary=True``.  The file gets the mode ``open(path, "w")`` would leave
    it: a replaced file keeps its mode, and a new one gets 0o666 less the
    umask.  An OSError names path, not the temp file, whose name is random.
    """
    path = Path(path)
    tmp = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
    created = False
    try:
        fd = os.open(tmp, _CREATE, 0o666)
        created = True
        with os.fdopen(fd, "wb" if binary else "w") as handle:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            handle.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    finally:
        if created and os.path.exists(tmp):
            os.unlink(tmp)
