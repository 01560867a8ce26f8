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
import tempfile
from typing import Optional

from .snf import SparseIntMatrix

ENV_VAR = "FINSUB_CACHE_DIR"
# Part of every descriptor; bump it when the engine changes the boundary
# matrices a descriptor stands for, so that older entries miss.
FORMAT = 1


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
        path = self._path(key, degree)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return SparseIntMatrix.from_triplets(
                data["rows"], data["cols"],
                ((r, c, v) for r, c, v in data["triplets"]))
        except (ValueError, KeyError, OSError):
            return None  # treat corrupt entries as misses

    def put(self, key: str, degree: int, matrix: SparseIntMatrix) -> None:
        payload = {"rows": matrix.rows, "cols": matrix.cols,
                   "triplets": matrix.triplets()}
        path = self._path(key, degree)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def stats(self) -> CacheStats:
        entries = 0
        total = 0
        if os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name.endswith(".json"):
                    entries += 1
                    total += os.path.getsize(os.path.join(self.directory, name))
        return CacheStats(entries, total)

    def clear(self) -> int:
        removed = 0
        if os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name.endswith(".json") or name.endswith(".tmp"):
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
        return removed
