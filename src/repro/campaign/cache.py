"""Content-hash result cache for campaigns.

Keys are :meth:`~repro.campaign.request.RunRequest.fingerprint` hashes —
covering the experiment name, fully resolved parameters and config
fingerprint — so a hit is only possible for a byte-identical experiment
input.  The cache always holds results in memory; give it a directory to
persist them as one JSON file per fingerprint across processes/sessions.
Entries are written to a temporary file and renamed into place, so readers
never see a truncated entry and a failed write keeps the previous one.

The fingerprint does not cover the simulator's code, so disk entries live
under a digest of the ``repro`` package's sources,
``<directory>/<source digest>/<fingerprint>.json``: after any edit to the
model the digest changes and entries written by older code are never
served.  The digest is computed once per process.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.errors import ExperimentError
from repro.campaign.request import RunRequest
from repro.experiments.base import ExperimentResult

#: The ``repro`` package directory whose sources key the disk entries.
PACKAGE_DIR = Path(__file__).resolve().parent.parent


def package_digest(package_dir: Path) -> str:
    """Short sha256 over every ``.py`` file under ``package_dir``.

    Files are hashed in sorted relative-path order, each as its relative
    POSIX path, its length and its bytes, so a rename, an added or removed
    module and a one-byte edit each change the digest.
    """
    digest = hashlib.sha256()
    for name, path in sorted((path.relative_to(package_dir).as_posix(), path)
                             for path in package_dir.rglob("*.py")):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0" % (name.encode("utf-8"), len(data)))
        digest.update(data)
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """:func:`package_digest` of the running ``repro`` package, once per process."""
    return package_digest(PACKAGE_DIR)


class ResultCache:
    """Maps request fingerprints to experiment results (memory + optional disk)."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self._memory: Dict[str, ExperimentResult] = {}
        #: Where this process's disk entries live: the directory's
        #: subdirectory named by the model's :func:`source_digest`.
        self.entry_directory: Optional[str] = None
        if directory is not None:
            self.entry_directory = os.path.join(directory, source_digest())
            os.makedirs(self.entry_directory, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, fingerprint: str) -> str:
        assert self.entry_directory is not None
        return os.path.join(self.entry_directory, "%s.json" % fingerprint)

    def get(self, request: RunRequest) -> Optional[ExperimentResult]:
        """The cached result for this request, or None (counts hit/miss)."""
        fingerprint = request.fingerprint()
        result = self._memory.get(fingerprint)
        if result is None and self.directory is not None:
            path = self._path(fingerprint)
            if os.path.exists(path):
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        result = ExperimentResult.from_json(handle.read())
                except ExperimentError:
                    result = None  # corrupt entry: treat as a miss and overwrite later
                else:
                    self._memory[fingerprint] = result
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, request: RunRequest, result: ExperimentResult) -> None:
        """Store a freshly computed result under the request's fingerprint."""
        fingerprint = request.fingerprint()
        self._memory[fingerprint] = result
        if self.directory is not None:
            fd, temp_path = tempfile.mkstemp(dir=self.entry_directory, prefix=fingerprint,
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(result.to_json() + "\n")
                os.replace(temp_path, self._path(fingerprint))
            except BaseException:
                os.unlink(temp_path)
                raise

    def clear(self) -> None:
        """Drop the in-memory entries (on-disk files are left alone)."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0
