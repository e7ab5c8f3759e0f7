"""The run-history regression store: accuracy gets the gate speed has.

Speed is gated elsewhere: ``benchmarks/e2e`` compares wall clocks run
against run, and ``ci/live_pass_ratio.py`` times two routes in one
process.  Without this store nothing would pin *accuracy* — the paper's
headline 2.3% error could drift and no gate would notice.  This module is the fix: every pipeline run appends one
JSON line (accuracy, wall-clock, key counters) to a per-
workload history file under the shared artifact store's directory, and
``repro-obs history --check`` fails when the newest run regresses
against a rolling baseline of the preceding runs.

Write discipline has two crash-safety protocols:

* **appends** write one whole ``\\n``-terminated line through an
  ``O_APPEND`` file, flushed and fsynced, so a kill leaves at worst one
  torn trailing line the loader skips and counts;
* **retention compaction** (trimming to the newest ``max_records``) is
  the store's publish protocol — rewrite into a same-directory temp
  file, fsync, ``os.replace`` — so a crash mid-compaction leaves either
  the old file or the new one, never a hybrid.

The regression check is deliberately asymmetric: *accuracy* gates (it
is deterministic for a seeded configuration, so identical reruns always
pass), *wall-clock* only reports trend (records from different runs and
machines are too noisy to gate on).  Lines written before the
``coverage_pct`` field was retired still load; the field is ignored.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: History record schema marker; a record carrying any other is rejected.
HISTORY_SCHEMA = "repro-history/1"

#: Fields every history record line must carry.
REQUIRED_FIELDS = (
    "schema", "ts", "run_id", "workload", "mode", "wall_s",
    "predicted_cycles",
)

#: The pipeline modes a record may come from.
MODES = ("offline", "live")

#: Keep at most this many records per history file before compaction.
DEFAULT_MAX_RECORDS = 512

#: Rolling-baseline window: the newest record is judged against the mean
#: of up to this many preceding records.
DEFAULT_WINDOW = 5

#: A run regresses when its error exceeds baseline * rel AND
#: baseline + abs (percentage points) — both, so near-zero baselines do
#: not flag float dust and large baselines do not flag small wobble.
DEFAULT_ERROR_REL = 1.25
DEFAULT_ERROR_ABS_PP = 0.5


class HistoryError(ReproError):
    """A history record violates the schema, or time runs backwards."""


@dataclass
class HistoryRecord:
    """One run's scoreboard entry."""

    workload: str
    mode: str                     # "offline" | "live"
    ts: float                     # epoch seconds at append time
    run_id: str
    runtime_error_pct: Optional[float]
    wall_s: float
    predicted_cycles: int
    actual_cycles: Optional[int] = None
    num_looppoints: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    schema: str = HISTORY_SCHEMA

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": self.schema,
            "ts": round(self.ts, 6),
            "run_id": self.run_id,
            "workload": self.workload,
            "mode": self.mode,
            "runtime_error_pct": (
                round(self.runtime_error_pct, 6)
                if self.runtime_error_pct is not None else None
            ),
            "wall_s": round(self.wall_s, 6),
            "predicted_cycles": int(self.predicted_cycles),
            "num_looppoints": int(self.num_looppoints),
        }
        if self.actual_cycles is not None:
            out["actual_cycles"] = int(self.actual_cycles)
        if self.counters:
            out["counters"] = {
                k: int(self.counters[k]) for k in sorted(self.counters)
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistoryRecord":
        """Parse one record, rejecting anything the regression gate could
        misread: a missing or empty required field (no defaults are
        filled in), a foreign schema marker, or an unknown mode."""
        if not isinstance(data, dict):
            raise HistoryError(f"history record is not an object: {data!r}")
        missing = [f for f in REQUIRED_FIELDS if data.get(f) in (None, "")]
        if missing:
            raise HistoryError(
                f"history record lacks required field(s): "
                f"{', '.join(missing)}"
            )
        if data["schema"] != HISTORY_SCHEMA:
            raise HistoryError(
                f"history schema marker {data['schema']!r} is not "
                f"{HISTORY_SCHEMA!r}"
            )
        if data["mode"] not in MODES:
            raise HistoryError(
                f"history mode {data['mode']!r} is neither 'offline' nor "
                f"'live'"
            )
        try:
            return cls(
                workload=str(data["workload"]),
                mode=data["mode"],
                ts=float(data["ts"]),
                run_id=str(data["run_id"]),
                runtime_error_pct=(
                    float(data["runtime_error_pct"])
                    if data.get("runtime_error_pct") is not None else None
                ),
                wall_s=float(data["wall_s"]),
                predicted_cycles=int(data["predicted_cycles"]),
                actual_cycles=(
                    int(data["actual_cycles"])
                    if data.get("actual_cycles") is not None else None
                ),
                num_looppoints=int(data.get("num_looppoints", 0)),
                counters=dict(data.get("counters", {})),
                schema=data["schema"],
            )
        except (TypeError, ValueError) as exc:
            raise HistoryError(
                f"history record has a malformed field: {exc}"
            ) from None


def history_path_for(cache_dir: str, workload: str) -> str:
    """Per-workload history file under the shared store's directory."""
    safe = workload.replace("/", "_")
    return os.path.join(cache_dir, "history", f"{safe}.history.jsonl")


class HistoryStore:
    """Append-only JSON-lines store of one workload's run records."""

    def __init__(
        self, path: str, max_records: int = DEFAULT_MAX_RECORDS,
    ) -> None:
        self.path = str(path)
        self.max_records = int(max_records)

    # -- writing ------------------------------------------------------------

    def append(self, record: HistoryRecord) -> int:
        """Append one record (one fsynced line), then enforce retention.

        Returns the record count after retention, for status lines.
        Raises :class:`HistoryError`, and writes nothing, when the file
        already fails to load or ``record`` predates its newest record.
        """
        records, _ = self.load()
        if records and record.ts < records[-1].ts:
            raise HistoryError(
                f"record timestamp {record.ts:.6f} precedes the newest "
                f"record's {records[-1].ts:.6f}; the clock stepped "
                f"backwards"
            )
        line = json.dumps(
            record.as_dict(), sort_keys=True, separators=(",", ":")
        )
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._compact()
        return len(self.load()[0])

    def _compact(self) -> None:
        """Trim to the newest ``max_records`` via the publish protocol."""
        if self.max_records <= 0:
            return
        records, _ = self.load()
        if len(records) <= self.max_records:
            return
        keep = records[-self.max_records:]
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in keep:
                    fh.write(json.dumps(
                        record.as_dict(), sort_keys=True,
                        separators=(",", ":"),
                    ) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- reading ------------------------------------------------------------

    def load(self) -> Tuple[List[HistoryRecord], int]:
        """All records in file order, plus the torn line count.

        A line that is not JSON is a torn write: it is skipped and
        counted.  A line that parses but is not a valid record, or whose
        timestamp precedes its predecessor's, raises :class:`HistoryError`
        naming the line.
        """
        records: List[HistoryRecord] = []
        corrupt = 0
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            return [], 0
        for lineno, line in enumerate(raw.splitlines(), 1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            where = f"{self.path}:{lineno}"
            try:
                record = HistoryRecord.from_dict(data)
            except HistoryError as exc:
                raise HistoryError(f"{where}: {exc}") from None
            if records and record.ts < records[-1].ts:
                raise HistoryError(
                    f"{where}: timestamp {record.ts:.6f} precedes its "
                    f"predecessor's {records[-1].ts:.6f}; append order "
                    f"must be time order"
                )
            records.append(record)
        return records, corrupt


# -- regression checking ----------------------------------------------------


@dataclass(frozen=True)
class Regression:
    """One gate violation of the newest record vs the rolling baseline."""

    metric: str
    latest: float
    baseline: float
    detail: str


def check_regression(
    records: Sequence[HistoryRecord],
    window: int = DEFAULT_WINDOW,
    error_rel: float = DEFAULT_ERROR_REL,
    error_abs_pp: float = DEFAULT_ERROR_ABS_PP,
) -> List[Regression]:
    """Judge the newest record against the mean of up to ``window``
    preceding records.  Fewer than two records means nothing to judge.

    Raises :class:`ValueError` when ``window`` is below 1: an empty
    baseline would pass any regression.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(records) < 2:
        return []
    latest = records[-1]
    baseline = records[-(window + 1):-1]
    out: List[Regression] = []
    errors = [
        r.runtime_error_pct for r in baseline
        if r.runtime_error_pct is not None
    ]
    if errors and latest.runtime_error_pct is not None:
        base_err = sum(errors) / len(errors)
        bound = max(base_err * error_rel, base_err + error_abs_pp)
        if latest.runtime_error_pct > bound:
            out.append(Regression(
                metric="runtime_error_pct",
                latest=latest.runtime_error_pct,
                baseline=base_err,
                detail=(
                    f"runtime error {latest.runtime_error_pct:.3f}% exceeds "
                    f"the rolling baseline {base_err:.3f}% "
                    f"(bound {bound:.3f}%, window {len(errors)})"
                ),
            ))
    return out


def trend_rows(records: Sequence[HistoryRecord]) -> List[List[object]]:
    """Table rows (newest last) for ``repro-obs history``."""
    rows: List[List[object]] = []
    for record in records:
        err = (
            f"{record.runtime_error_pct:.3f}%"
            if record.runtime_error_pct is not None else "--"
        )
        rows.append([
            time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(record.ts)
            ),
            record.mode,
            err,
            f"{record.wall_s:.2f}s",
            record.num_looppoints,
            record.run_id[:12],
        ])
    return rows
