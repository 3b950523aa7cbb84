"""All-or-nothing writes: of a set of files into one directory, and of
text chunks to an open stream."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Iterable


def write_staged(target_dir, files: dict[str, str | Iterable[str]]) -> list[Path]:
    """Write a file set without ever leaving partial output behind:
    everything is staged in a temp directory next to ``target_dir``
    first, then moved in. The parent of ``target_dir`` must exist.

    A file's text is a str or an iterable of str chunks, written as they
    come; if producing one raises, nothing is moved in."""
    target_dir = Path(target_dir)
    try:
        staging = Path(tempfile.mkdtemp(dir=target_dir.parent, prefix=".stage-"))
    except OSError as e:
        raise OSError(f"cannot write under {target_dir.parent}: {e}") from None
    try:
        for name, text in files.items():
            with open(staging / name, "w") as f:
                f.writelines([text] if isinstance(text, str) else text)
        target_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name in files:
            final = target_dir / name
            (staging / name).replace(final)
            written.append(final)
        return written
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_staged_stream(chunks: Iterable[str], out) -> None:
    """Write the text ``chunks`` to the text stream ``out`` without ever
    leaving partial output there: they are staged in a temporary file,
    which is copied to ``out`` only once the last chunk is made. If
    producing one raises, ``out`` receives nothing."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as staged:
        staged.writelines(chunks)
        staged.seek(0)
        shutil.copyfileobj(staged, out)
