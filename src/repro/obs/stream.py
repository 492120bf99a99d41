"""The ``repro-obs-stream/1`` JSONL channel.

Every record is one line of compact sorted-key JSON stamped with the schema
tag.  Records are **sim-time-stamped only**: the validator recursively rejects
wall-clock-looking keys anywhere in a record, which is what lets two seeded
runs (or the same run split across ``--parallel`` workers) produce identical
*sorted* streams — record contents are deterministic, only the interleaving
of independent writers varies.

Writers append; regular files are truncated once when the parent opens the
stream (:meth:`ObsStream.open`) and then shared in append mode with worker
processes (:meth:`ObsStream.attach`), whose line-sized ``O_APPEND`` writes do
not interleave mid-record on POSIX.  FIFOs are never truncated.
"""

from __future__ import annotations

import json
import os
import stat
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple

from repro.errors import ObsError

#: Schema tag stamped on (and required of) every stream record.
STREAM_SCHEMA = "repro-obs-stream/1"

#: The one encoder of stream lines: compact separators, sorted keys.  It
#: skips the circular-reference check: a record reaches it only after
#: :func:`validate_record` or :func:`_plain` walked it, which a cycle would
#: not survive.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
#: A sample record as :data:`_ENCODER` writes it, its keys in sorted order:
#: the encoded ``data``, ``probe`` and ``run``, then ``sim`` and ``t``.
_SAMPLE_LINE = ('{"data":%s,"event":"sample","probe":%s,"run":%s,"schema":"' + STREAM_SCHEMA
                + '","sim":%d,"t":%r}\n')

#: Required fields per event type (beyond ``schema`` and ``event``).
EVENT_FIELDS: Mapping[str, Tuple[str, ...]] = {
    "sample": ("run", "sim", "t", "probe", "data"),
    "entry_started": ("index", "entry", "fingerprint"),
    "entry_cached": ("index", "entry", "fingerprint"),
    "entry_finished": ("index", "fingerprint", "ok"),
    "explore_round": ("round", "proposed", "evaluated"),
    "explore_point": ("index", "fingerprint", "objectives"),
}

#: Key names that smell like wall clocks; banned anywhere in a record so the
#: stream stays reproducible (sim time is the only clock, carried in ``t``).
WALL_CLOCK_KEYS = frozenset(
    {
        "created_at",
        "date",
        "datetime",
        "elapsed_s",
        "time",
        "timestamp",
        "wall_clock",
        "wall_s",
        "wall_time_s",
        "walltime",
    }
)


def _scan_wall_keys(value: Any, problems: List[str], prefix: str = "") -> None:
    if isinstance(value, Mapping):
        for key in sorted(value, key=str):
            dotted = "%s.%s" % (prefix, key) if prefix else str(key)
            if str(key) in WALL_CLOCK_KEYS:
                problems.append("wall-clock key %r is banned from the stream" % dotted)
            _scan_wall_keys(value[key], problems, dotted)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _scan_wall_keys(item, problems, "%s[%d]" % (prefix, index))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Leaf types :func:`_plain` accepts: those the encoder writes as JSON scalars.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _plain(value: Any) -> bool:
    """Whether *value* is JSON scalars in plain dicts and lists with no wall-clock key."""
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or key in WALL_CLOCK_KEYS:
                return False
            if type(item) not in _SCALARS and not _plain(item):
                return False
        return True
    if kind is list or kind is tuple:
        for item in value:
            if type(item) not in _SCALARS and not _plain(item):
                return False
        return True
    return kind in _SCALARS


def validate_record(record: Any) -> List[str]:
    """All the ways *record* fails the ``repro-obs-stream/1`` contract."""
    if not isinstance(record, Mapping):
        return ["record is not a JSON object"]
    problems: List[str] = []
    if record.get("schema") != STREAM_SCHEMA:
        problems.append(
            "schema is %r, expected %r" % (record.get("schema"), STREAM_SCHEMA)
        )
    event = record.get("event")
    if event not in EVENT_FIELDS:
        problems.append(
            "unknown event %r (known: %s)" % (event, ", ".join(sorted(EVENT_FIELDS)))
        )
    else:
        for field in EVENT_FIELDS[event]:
            if field not in record:
                problems.append("event %r is missing field %r" % (event, field))
        if event == "sample":
            if "t" in record and not _is_number(record["t"]):
                problems.append("sample field 't' must be sim time (a number)")
            if "sim" in record and not isinstance(record["sim"], int):
                problems.append("sample field 'sim' must be an integer index")
            if "probe" in record and not isinstance(record["probe"], str):
                problems.append("sample field 'probe' must be a string")
            if "data" in record and not isinstance(record["data"], Mapping):
                problems.append("sample field 'data' must be an object")
        elif event == "entry_finished":
            if "ok" in record and not isinstance(record["ok"], bool):
                problems.append("entry_finished field 'ok' must be a boolean")
        elif event in ("entry_started", "entry_cached", "explore_point"):
            if "index" in record and not isinstance(record["index"], int):
                problems.append("%s field 'index' must be an integer" % event)
    _scan_wall_keys(record, problems)
    return problems


def read_stream(path: str) -> List[Dict[str, Any]]:
    """Parse a stream file into records; raise :class:`ObsError` on bad JSON."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ObsError("%s:%d: invalid JSON: %s" % (path, number, exc))
    return records


class ObsStream:
    """Line-buffered JSONL sink over a file handle, path, or FIFO.

    Every :meth:`emit` stamps the schema tag, validates the record against
    the contract above (so a malformed probe payload fails loudly instead of
    poisoning the stream), and writes one compact sorted-key line.
    """

    __slots__ = ("path", "records", "_handle", "_owns")

    def __init__(self, handle: IO[str], path: Optional[str] = None, owns: bool = False) -> None:
        self._handle = handle
        self.path = path
        self._owns = owns
        #: Records written through this sink (not the whole file's count).
        self.records = 0

    @classmethod
    def open(cls, path: str) -> "ObsStream":
        """Open *path* as the primary sink: truncate regular files, never FIFOs."""
        try:
            is_fifo = stat.S_ISFIFO(os.stat(path).st_mode)
        except OSError:
            is_fifo = False
        if not is_fifo:
            with open(path, "w", encoding="utf-8"):
                pass
        return cls(open(path, "a", encoding="utf-8"), path=path, owns=True)

    @classmethod
    def attach(cls, path: str) -> "ObsStream":
        """Open *path* append-only without truncating (worker processes)."""
        return cls(open(path, "a", encoding="utf-8"), path=path, owns=True)

    def emit(self, record: Mapping[str, Any]) -> None:
        """Validate and write one record (``schema`` is stamped here).

        Every line is flushed at once, so a worker's ``O_APPEND`` write
        stays whole and ``watch`` reads the stream live.
        """
        document: Dict[str, Any] = {"schema": STREAM_SCHEMA}
        document.update(record)
        problems = validate_record(document)
        if problems:
            raise ObsError(
                "refusing to emit invalid stream record: %s" % "; ".join(problems)
            )
        self._handle.write(_ENCODER.encode(document) + "\n")
        self._handle.flush()
        self.records += 1

    def write_sample(self, run: str, sim: int, t: float, probe: str,
                     data: Dict[str, Any]) -> None:
        """Write one ``sample`` record: the bytes :meth:`emit` writes, faster.

        A sample of a string run and probe, an integer ``sim``, a finite
        time and plain ``data`` (:func:`_plain`) passes
        :func:`validate_record` by construction, so it is formatted around
        its encoded fields without building the record.  Any other sample
        goes through :meth:`emit` and its full validation.
        """
        if (type(run) is str and type(sim) is int and type(probe) is str
                and (type(t) is int or type(t) is float and t - t == 0)
                and type(data) is dict and _plain(data)):
            encode = _ENCODER.encode
            self._handle.write(_SAMPLE_LINE % (encode(data), encode(probe), encode(run), sim, t))
            self._handle.flush()
            self.records += 1
        else:
            self.emit({"event": "sample", "run": run, "sim": sim, "t": t, "probe": probe,
                       "data": data})

    def close(self) -> None:
        """Close the underlying handle if this stream opened it."""
        if self._owns:
            self._handle.close()
