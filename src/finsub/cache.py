"""Content-addressed cache for boundary matrices.

Files are keyed by a hash of the construction descriptor (base space
hash, construction, parameters, engine format) plus the degree, and
store triplet lists.  The cache is purely an optimization: every result
is reproducible without it.  Writes go through a temp file and rename,
so concurrent runs never see partial files.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Optional

from .snf import SparseIntMatrix

ENV_VAR = "FINSUB_CACHE_DIR"
# Part of every descriptor; bump it when the engine changes the boundary
# matrices a descriptor stands for, so that older entries miss.
FORMAT = 1
# The only names the cache writes: entries <sha256 hex>-d<degree>.json,
# and their temp files, which add .<random>.tmp (group 1).  Compiled on
# first use, by stats and clear only.
_NAME = r"[0-9a-f]{64}-d[0-9]+\.json(\.\w+\.tmp)?"


def default_cache_dir() -> Optional[str]:
    return os.environ.get(ENV_VAR)


def descriptor_key(descriptor: dict) -> str:
    import hashlib  # maps libcrypto; jobs without a cache never load it

    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CacheStats:
    def __init__(self, entries: int, bytes: int):
        self.entries = entries
        self.bytes = bytes

    def to_json(self) -> dict:
        return {"entries": self.entries, "bytes": self.bytes}


class BoundaryCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str, degree: int) -> str:
        return os.path.join(self.directory, f"{key}-d{degree}.json")

    def get(self, key: str, degree: int) -> Optional[SparseIntMatrix]:
        try:
            with open(self._path(key, degree), "r", encoding="utf-8") as fh:
                return _parse(json.load(fh))
        except (ValueError, KeyError, TypeError, IndexError, OSError):
            return None  # a missing entry, or a corrupt one

    def put(self, key: str, degree: int, matrix: SparseIntMatrix) -> None:
        payload = {"rows": matrix.rows, "cols": matrix.cols,
                   "triplets": matrix.triplets()}
        path = self._path(key, degree)
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _own(self) -> list[tuple[str, bool]]:
        """(path, is a temp file) for each file in the directory that the
        cache wrote; nothing else there is counted or deleted."""
        if not os.path.isdir(self.directory):
            return []
        found = [(n, re.fullmatch(_NAME, n)) for n in os.listdir(self.directory)]
        return [(os.path.join(self.directory, n), bool(m[1]))
                for n, m in found if m]

    def stats(self) -> CacheStats:
        entries = [path for path, temp in self._own() if not temp]
        return CacheStats(len(entries), sum(map(os.path.getsize, entries)))

    def clear(self) -> int:
        owned = self._own()
        for path, _ in owned:
            os.unlink(path)
        return len(owned)


def _parse(data) -> SparseIntMatrix:
    """The matrix of an entry {"rows": int, "cols": int, "triplets":
    [[int, int, int], ...]}; raises on any other shape."""
    rows, cols, triplets = data["rows"], data["cols"], data["triplets"]
    # exact types: a bool is an int, and a float would leave exact arithmetic
    if not (type(rows) is type(cols) is int and type(triplets) is list
            and {type(v) for t in triplets for v in t} <= {int}):
        raise ValueError("malformed cache entry")
    return SparseIntMatrix.from_triplets(rows, cols, triplets)
