"""The one atomic file write: every output file and cache entry goes through it."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable


def write_atomic(
    path: str | Path, chunks: Iterable[str] | Iterable[bytes], binary: bool = False
) -> None:
    """Write the chunks to path atomically: temp file in the same directory, then rename.

    The chunks are written one at a time, so the caller need not build the
    whole file in memory: text in text mode, or bytes-like objects with
    ``binary=True``.  An OSError names path, not the temp file, whose name
    is random.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb" if binary else "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
