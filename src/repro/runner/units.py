"""Work-unit schema for the campaign execution engine.

A campaign decomposes into independent, order-free units of work.  Each
:class:`WorkUnit` is a pure description -- a stable id, a kind tag, and a
JSON-serializable payload -- with no behaviour attached, so units can be
pickled to worker processes, fingerprinted into run manifests, and compared
against a durable result store across process restarts.

:class:`UnitResult` is the matching outcome record: either an ``ok`` row
carrying the worker's JSON value, or a ``failed`` row carrying structured
error capture (type, message, traceback) after bounded retries.  Both
round-trip losslessly through JSON, which is what makes checkpoint/resume
byte-identical: a result read back from disk aggregates exactly like one
that never left memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError

#: Result states a unit can end in.
STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class WorkUnit:
    """One independent piece of campaign work.

    Parameters
    ----------
    unit_id:
        Stable identity, unique within a run; the resume key.  Derive it
        from the unit's configuration (e.g. ``chip-0017``) rather than from
        submission order so re-planning a campaign reproduces the same ids.
    kind:
        Dispatch tag naming the worker family (``"chip-measurement"``).
    payload:
        JSON-serializable mapping handed verbatim to the worker function.
    trace:
        Optional trace-context wire dict (``{"trace_id", "span_id"}``)
        stamped by the engine just before dispatch so worker-side spans
        correlate with the submitting request.  Pure observability
        metadata: excluded from equality, never fingerprinted, never
        persisted -- two units differing only in ``trace`` are the same
        unit.
    """

    unit_id: str
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    trace: Optional[Mapping[str, Any]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.unit_id:
            raise ConfigurationError("work unit needs a non-empty unit_id")
        if not self.kind:
            raise ConfigurationError("work unit needs a non-empty kind")


@dataclass(frozen=True)
class UnitFailure:
    """Structured capture of the exception that exhausted a unit's retries."""

    type: str
    message: str
    traceback: str

    def to_json_dict(self) -> Dict[str, str]:
        return {"type": self.type, "message": self.message, "traceback": self.traceback}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "UnitFailure":
        return cls(
            type=str(data.get("type", "")),
            message=str(data.get("message", "")),
            traceback=str(data.get("traceback", "")),
        )

    @classmethod
    def from_exception(cls, exc: BaseException, tb_text: str) -> "UnitFailure":
        return cls(type=type(exc).__name__, message=str(exc), traceback=tb_text)


@dataclass(frozen=True)
class UnitResult:
    """Outcome of executing one :class:`WorkUnit`.

    ``value`` holds the worker's JSON-serializable return on success;
    ``error`` holds the :class:`UnitFailure` after retries are exhausted.
    ``elapsed_s`` is wall-clock bookkeeping only -- it never participates
    in aggregation, so resumed runs stay deterministic.

    ``telemetry`` is transient wire data: the worker-side observability
    capture (``{"metrics": snapshot rows, "events": buffered rows}``)
    shipped back for the parent to merge.  It is excluded from equality
    and from :meth:`to_json_dict`, so ``results.jsonl`` stays byte-for-byte
    independent of whether instrumentation was on.
    """

    unit_id: str
    status: str
    value: Optional[Any] = None
    error: Optional[UnitFailure] = None
    attempts: int = 1
    elapsed_s: float = 0.0
    telemetry: Optional[Mapping[str, Any]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_FAILED):
            raise ConfigurationError(f"unknown unit status {self.status!r}")
        if self.status == STATUS_OK and self.error is not None:
            raise ConfigurationError("an ok result cannot carry an error")
        if self.status == STATUS_FAILED and self.error is None:
            raise ConfigurationError("a failed result must carry an error")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_json_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "unit_id": self.unit_id,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
        if self.status == STATUS_OK:
            row["value"] = self.value
        else:
            assert self.error is not None
            row["error"] = self.error.to_json_dict()
        return row

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "UnitResult":
        error = data.get("error")
        return cls(
            unit_id=str(data["unit_id"]),
            status=str(data["status"]),
            value=data.get("value"),
            error=UnitFailure.from_json_dict(error) if error is not None else None,
            attempts=int(data.get("attempts", 1)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


def check_unique_ids(units: Tuple[WorkUnit, ...]) -> None:
    """Reject a unit list with duplicate ids -- resume keys must be unique."""
    seen: Dict[str, int] = {}
    for unit in units:
        seen[unit.unit_id] = seen.get(unit.unit_id, 0) + 1
    duplicates = sorted(uid for uid, n in seen.items() if n > 1)
    if duplicates:
        raise ConfigurationError(f"duplicate work-unit ids: {', '.join(duplicates[:5])}")
