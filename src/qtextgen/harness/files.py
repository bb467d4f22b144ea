"""Atomic file writes: a reader finds either the old file or the complete new one."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_text_atomic"]


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` (UTF-8) to a temporary file beside ``path``, then rename it over ``path``.

    If writing or renaming fails, ``path`` is left as it was and the
    temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
