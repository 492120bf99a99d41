"""Structured result container for experiments.

An :class:`ExperimentResult` is a typed, serializable record of one
regenerated table/figure: named columns with units, JSON-native rows, free
text notes and a :class:`ResultMetadata` block (which experiment produced
it, with which parameters, against which config fingerprint, and how long
it took).  Results round-trip losslessly through :meth:`ExperimentResult.to_json`
/ :meth:`ExperimentResult.from_json` and export to CSV; ``format()`` keeps
the original plain-text rendering.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.report import format_table
from repro.errors import ExperimentError

#: Matches a trailing parenthesized unit in a column header, e.g. "Latency (ns)".
_UNIT_PATTERN = re.compile(r"\(([^()]+)\)\s*$")


@dataclass
class ResultMetadata:
    """Reproducibility metadata attached to every experiment result."""

    #: Registry name of the producing experiment ("" for ad-hoc results).
    experiment: str = ""
    #: Resolved parameter values the run used (JSON-native).
    params: Dict[str, object] = field(default_factory=dict)
    #: :meth:`repro.config.SystemConfig.fingerprint` of the config used.
    config_fingerprint: str = ""
    #: Wall-clock seconds the run took.
    wall_time_s: float = 0.0
    #: Number of data rows produced.
    row_count: int = 0
    #: Optional named event counters (simulated runs, measured samples, ...).
    events: Dict[str, int] = field(default_factory=dict)
    #: Simulation-performance counters (events/sec, packets/sec, peak
    #: pending events) sampled over the run; empty for analytical experiments.
    perf: Dict[str, float] = field(default_factory=dict)
    #: Measurement-quality warnings (e.g. a windowed metric that hit its
    #: window budget without converging).
    warnings: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "config_fingerprint": self.config_fingerprint,
            "wall_time_s": self.wall_time_s,
            "row_count": self.row_count,
            "events": dict(self.events),
            "perf": dict(self.perf),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ResultMetadata":
        return cls(
            experiment=str(payload.get("experiment", "")),
            params=dict(payload.get("params", {})),
            config_fingerprint=str(payload.get("config_fingerprint", "")),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            row_count=int(payload.get("row_count", 0)),
            events={str(k): int(v) for k, v in dict(payload.get("events", {})).items()},
            perf={str(k): float(v) for k, v in dict(payload.get("perf", {})).items()},
            warnings=[str(w) for w in payload.get("warnings", [])],
        )


@dataclass
class ExperimentResult:
    """Tabular output of one experiment (one table or figure of the paper)."""

    name: str
    description: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Per-column units keyed by header; auto-derived from trailing "(unit)"
    #: suffixes for headers not explicitly listed.
    units: Dict[str, str] = field(default_factory=dict)
    metadata: ResultMetadata = field(default_factory=ResultMetadata)

    def __post_init__(self) -> None:
        for header in self.headers:
            if header not in self.units:
                match = _UNIT_PATTERN.search(header)
                if match:
                    self.units[header] = match.group(1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ExperimentError(
                "row has %d cells but %r declares %d headers"
                % (len(cells), self.name, len(self.headers))
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def column(self, header: str) -> List[object]:
        """All values of one column (raises ExperimentError if unknown)."""
        try:
            index = list(self.headers).index(header)
        except ValueError:
            raise ExperimentError(
                "result %r has no column %r (available: %s)"
                % (self.name, header, ", ".join(repr(h) for h in self.headers))
            ) from None
        return [row[index] for row in self.rows]

    def unit(self, header: str) -> Optional[str]:
        """The unit of one column, or None when the column is unitless."""
        if header not in self.headers:
            self.column(header)  # raises the descriptive ExperimentError
        return self.units.get(header)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render the experiment as plain text."""
        parts = ["== %s ==" % self.name, self.description, "", format_table(self.headers, self.rows)]
        if self.notes:
            parts.append("")
            parts.extend("note: %s" % note for note in self.notes)
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "units": dict(self.units),
            "metadata": self.metadata.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentResult":
        try:
            headers = list(payload["headers"])
            result = cls(
                name=str(payload["name"]),
                description=str(payload.get("description", "")),
                headers=headers,
                notes=[str(note) for note in payload.get("notes", [])],
                units={str(k): str(v) for k, v in dict(payload.get("units", {})).items()},
                metadata=ResultMetadata.from_dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError("malformed experiment-result document: %s" % exc) from None
        for row in payload.get("rows", []):
            result.add_row(*row)
        return result

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError("invalid experiment-result JSON: %s" % exc) from None
        return cls.from_dict(payload)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def to_csv(self) -> str:
        """The table as CSV (header row first; notes/metadata are not exported)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())


def load_result(path: str) -> ExperimentResult:
    """Load one :class:`ExperimentResult` from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ExperimentResult.from_json(handle.read())
    except OSError as exc:
        raise ExperimentError("cannot read experiment result %s: %s" % (path, exc)) from None
