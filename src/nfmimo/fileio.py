"""Atomic file output: a reader sees either the previous file or the complete new one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None, binary: bool = False):
    """Open a UTF-8 text file (bytes if binary) for writing that replaces path only on success.

    Output goes to a temporary file next to path, which os.replace moves over
    path once the with-block finishes. If the block raises, the temporary
    file is removed and whatever was at path stays untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
