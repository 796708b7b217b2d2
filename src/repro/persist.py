"""Crash-safe file persistence helpers (the atomic-write contract).

Contract: ``docs/INVARIANTS.md#atomic-persistence`` — every JSON document
this project persists (sweep caches, campaign shard files, merged
outputs, failure reports) is written via a temp file in the *same
directory* followed by ``os.replace``, so a reader never observes a
half-written document and a killed writer never corrupts an existing
one.  The temp file is fsynced before the rename; the rename itself is
atomic on POSIX.  Cell documents (a header plus a list of cells) are
streamed through :class:`CellDocumentWriter` under the same rule and in
the same byte format, so the writer's memory does not grow with them.

Readers use :func:`load_json_or_none`, which converts a missing,
truncated, or otherwise corrupt file into ``None`` plus a warning —
an unreadable cache must degrade to a cache miss, never a traceback.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Any, Dict, Optional


class AtomicFile:
    """A text file that appears at ``path`` whole, or not at all.

    Writes go to a temp file in the target's directory; :meth:`commit`
    flushes, fsyncs and ``os.replace``s it over the target.  Leaving the
    ``with`` block without having committed — an exception, or simply no
    ``commit()`` — removes the temp file and leaves the target as it was.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        fd, self._tmp = tempfile.mkstemp(
            dir=parent, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        self._handle = os.fdopen(fd, "w")

    def write(self, text: str) -> None:
        self._handle.write(text)

    def commit(self) -> str:
        """Make the written text the content of ``path``; returns it."""
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        self._tmp = None
        return self.path

    def abort(self) -> None:
        """Drop the temp file (a no-op once committed or aborted)."""
        if self._tmp is None:
            return
        tmp, self._tmp = self._tmp, None
        try:
            self._handle.close()  # may flush, so may fail like a write
        except OSError:
            pass
        try:
            os.unlink(tmp)
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.abort()


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (tmp + fsync + os.replace)."""
    with AtomicFile(path) as out:
        out.write(text)
        return out.commit()


def atomic_write_json(
    path: str, doc: Any, *, indent: int = 1, sort_keys: bool = True
) -> str:
    """Serialize ``doc`` and write it atomically; returns ``path``.

    For small whole documents (failure reports, perf/bench files).  A
    cell document goes through :class:`CellDocumentWriter`, which
    produces the same bytes without holding the document.
    """
    text = json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)


#: where the cells go in an encoded header: ``"cells"`` is a depth-1 key
#: (one column of indent), and a JSON string cannot hold a raw newline,
#: so no other place in the text can match
_CELLS_SLOT = '\n "cells": []'


def encode_cell(cell: Any) -> str:
    """One cell as it reads inside a document's ``cells`` list: the
    ``indent=1, sort_keys=True`` encoding, two columns in."""
    text = json.dumps(cell, indent=1, sort_keys=True)
    return "  " + text.replace("\n", "\n  ")


class CellDocumentWriter(AtomicFile):
    """Stream ``{**header, "cells": [...]}`` to ``path``, one cell at a time.

    The committed file is byte for byte what ``atomic_write_json(path,
    {**header, "cells": cells})`` writes, under the same tmp + fsync +
    replace rule, but only the cell being added is ever in memory.
    """

    def __init__(self, path: str, header: Dict[str, Any]):
        if "cells" in header:
            raise ValueError("a cell document's header cannot have a 'cells' key")
        text = json.dumps({**header, "cells": []}, indent=1, sort_keys=True)
        head, slot, self._tail = text.partition(_CELLS_SLOT)
        super().__init__(path)
        self.write(head + slot[:-1])  # up to and including the "["
        self.count = 0

    def add(self, cell: Any) -> None:
        self.add_encoded(encode_cell(cell))

    def add_encoded(self, block: str) -> None:
        """Add a cell already encoded by :func:`encode_cell` (a cell that
        goes to several documents is encoded once)."""
        self.write(("\n" if self.count == 0 else ",\n") + block)
        self.count += 1

    def commit(self) -> str:
        self.write(("\n ]" if self.count else "]") + self._tail + "\n")
        return super().commit()


def load_json_or_none(path: str, *, label: str = "file") -> Optional[Any]:
    """Load a JSON document, degrading corruption to ``None`` + warning.

    A missing file is a silent ``None`` (the common first-run case); a
    present-but-unreadable one warns — a truncated cache from a killed
    run must surface, but as a cache miss rather than a crash.
    """
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        warnings.warn(
            f"{label} {path!r} is unreadable ({exc}); treating it as absent",
            stacklevel=2,
        )
        return None
