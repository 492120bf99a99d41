"""Aggregated outcome of a campaign run.

A :class:`CampaignReport` records, per request, the result (or the error
string), whether it came from the cache and how long it took, plus overall
wall time.  Reports serialize to JSON — this is the document the CLI's
``--json`` writes and :func:`load_report` reads back — and flatten to a
single merged CSV for spreadsheet-style analysis of sweeps.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.campaign.request import RunRequest
from repro.experiments.base import ExperimentResult
from repro.experiments.open_loop_sweeps import RESILIENCE_NOTE_PREFIX, SATURATION_NOTE_PREFIX


@dataclass
class CampaignEntry:
    """Outcome of one run request."""

    request: RunRequest
    result: Optional[ExperimentResult] = None
    cached: bool = False
    error: Optional[str] = None
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "request": self.request.to_dict(),
            "result": self.result.to_dict() if self.result is not None else None,
            "cached": self.cached,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignEntry":
        result = payload.get("result")
        return cls(
            request=RunRequest.from_dict(payload.get("request", {})),
            result=ExperimentResult.from_dict(result) if result is not None else None,
            cached=bool(payload.get("cached", False)),
            error=payload.get("error"),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
        )


@dataclass
class CampaignReport:
    """Every entry of a finished campaign plus aggregate statistics."""

    entries: List[CampaignEntry] = field(default_factory=list)
    wall_time_s: float = 0.0
    max_workers: int = 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def results(self) -> List[ExperimentResult]:
        """The successful results, in request order."""
        return [entry.result for entry in self.entries if entry.ok]

    @property
    def succeeded(self) -> int:
        return sum(1 for entry in self.entries if entry.ok)

    @property
    def failed(self) -> int:
        return sum(1 for entry in self.entries if not entry.ok)

    @property
    def cache_hits(self) -> int:
        return sum(1 for entry in self.entries if entry.cached)

    @property
    def simulated_events(self) -> int:
        """Simulation events executed across all non-cached successful runs."""
        return int(sum(
            entry.result.metadata.perf.get("events", 0.0)
            for entry in self.entries
            if entry.ok and not entry.cached
        ))

    @property
    def fused_hops(self) -> int:
        """NOC hop events elided by lookahead fusion across non-cached runs."""
        return int(sum(
            entry.result.metadata.perf.get("fused_hops", 0.0)
            for entry in self.entries
            if entry.ok and not entry.cached
        ))

    @property
    def fault_windows(self) -> int:
        """Fault windows activated across non-cached successful runs."""
        return int(sum(
            entry.result.metadata.perf.get("fault_windows", 0.0)
            for entry in self.entries
            if entry.ok and not entry.cached
        ))

    @property
    def simulation_wall_s(self) -> float:
        """Wall seconds the simulators of non-cached successful runs consumed."""
        return sum(
            entry.result.metadata.perf.get("wall_s", 0.0)
            for entry in self.entries
            if entry.ok and not entry.cached
        )

    def _labelled(
        self, lines: Callable[[ExperimentResult], Sequence[str]], prefix: str = ""
    ) -> List[str]:
        """Each successful result's ``lines`` starting with ``prefix``, labelled by request."""
        return [
            "%s: %s" % (entry.request.label(), line)
            for entry in self.entries if entry.ok
            for line in lines(entry.result) if line.startswith(prefix)
        ]

    @property
    def warnings(self) -> List[str]:
        """Measurement-quality warnings gathered from every successful result."""
        return self._labelled(attrgetter("metadata.warnings"))

    @property
    def saturation_points(self) -> List[str]:
        """Saturation-throughput findings gathered across the campaign.

        ``load_sweep`` results note their SLO saturation point; a sweep over
        designs/topologies/arrival processes therefore ends with one line per
        scenario, which is the headline comparison the paper's
        latency-under-load figures make.
        """
        return self._labelled(attrgetter("notes"), SATURATION_NOTE_PREFIX)

    @property
    def resilience_points(self) -> List[str]:
        """Resilience findings (``chaos_sweep`` digests) across the campaign.

        Each ``chaos_sweep`` result notes, per fault intensity, the degraded
        saturation throughput, worst tail amplification and mean recovery
        transient; a campaign sweeping designs or fault models ends with the
        side-by-side resilience comparison.
        """
        return self._labelled(attrgetter("notes"), RESILIENCE_NOTE_PREFIX)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format(self) -> str:
        """Formatted results followed by a one-line campaign summary."""
        parts = [entry.result.format() for entry in self.entries if entry.ok]
        for entry in self.entries:
            if not entry.ok:
                parts.append("!! %s failed: %s" % (entry.request.label(), entry.error))
        warnings = self.warnings
        if warnings:
            parts.append("\n".join("warning: %s" % warning for warning in warnings))
        # The cross-run digests carry the request labels the raw notes lack,
        # so they earn their place even for a single sweep.
        for digest in (self.saturation_points, self.resilience_points):
            if digest:
                parts.append("\n".join(digest))
        parts.append(self.summary())
        return "\n\n".join(parts)

    def summary(self) -> str:
        line = (
            "campaign: %d run(s), %d ok, %d failed, %d cache hit(s), "
            "%.2f s wall time, %d worker(s)"
            % (len(self.entries), self.succeeded, self.failed, self.cache_hits,
               self.wall_time_s, self.max_workers)
        )
        events = self.simulated_events
        if events:
            sim_wall = self.simulation_wall_s
            rate = events / sim_wall if sim_wall > 0 else 0.0
            line += "; %d simulated event(s) @ %.0f events/s" % (events, rate)
            fused = self.fused_hops
            if fused:
                line += ", %d hop(s) fused" % fused
            faults = self.fault_windows
            if faults:
                line += ", %d fault window(s)" % faults
        return line

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "campaign-report",
            "entries": [entry.to_dict() for entry in self.entries],
            "wall_time_s": self.wall_time_s,
            "max_workers": self.max_workers,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignReport":
        try:
            entries = [CampaignEntry.from_dict(item) for item in payload.get("entries", [])]
        except (TypeError, AttributeError) as exc:
            raise ExperimentError("malformed campaign-report document: %s" % exc) from None
        return cls(
            entries=entries,
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            max_workers=int(payload.get("max_workers", 1)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError("invalid campaign-report JSON: %s" % exc) from None
        return cls.from_dict(payload)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def to_csv(self) -> str:
        """All successful results flattened into one CSV.

        Columns are the experiment name, the union of swept parameter names,
        then the union of result headers (first-seen order); cells a given
        result lacks stay empty.
        """
        param_names: List[str] = []
        headers: List[str] = []
        for entry in self.entries:
            if not entry.ok:
                continue
            for name in sorted(entry.request.params):
                if name not in param_names:
                    param_names.append(name)
            for header in entry.result.headers:
                if header not in headers:
                    headers.append(header)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["experiment"] + param_names + headers)
        for entry in self.entries:
            if not entry.ok:
                continue
            prefix = [entry.request.experiment]
            prefix += [_csv_cell(entry.request.params.get(name)) for name in param_names]
            index = {header: position for position, header in enumerate(entry.result.headers)}
            for row in entry.result.rows:
                cells = [row[index[header]] if header in index else "" for header in headers]
                writer.writerow(prefix + cells)
        return buffer.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())


def _csv_cell(value: object) -> object:
    if isinstance(value, list):
        return ":".join(str(item) for item in value)
    return "" if value is None else value


def load_report(path: str) -> CampaignReport:
    """Load a campaign report written by :meth:`CampaignReport.write_json`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return CampaignReport.from_json(handle.read())
    except OSError as exc:
        raise ExperimentError("cannot read campaign report %s: %s" % (path, exc)) from None


def load_results(path: str) -> List[ExperimentResult]:
    """Load experiment results from any JSON document this package writes.

    Accepts a campaign-report document, a single-result document, or a bare
    JSON list of result documents.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ExperimentError("cannot read results %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ExperimentError("invalid results JSON in %s: %s" % (path, exc)) from None
    if isinstance(payload, list):
        return [ExperimentResult.from_dict(item) for item in payload]
    if isinstance(payload, dict) and "entries" in payload:
        return CampaignReport.from_dict(payload).results
    if isinstance(payload, dict):
        return [ExperimentResult.from_dict(payload)]
    raise ExperimentError("unrecognized results document in %s" % path)
