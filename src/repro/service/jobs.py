"""Job schema for the campaign service: specs, records, states, errors.

A *job* is one characterization campaign owned by a tenant.  The
submission payload is a :class:`CampaignJobSpec` -- the same knobs
``python -m repro campaign`` exposes, as plain JSON -- and the service
tracks each job as a :class:`JobRecord` that round-trips losslessly
through the durable ``jobs.jsonl`` ledger and the HTTP API.

State machine::

    queued -> running -> done
                      -> failed        (worker raised / config rejected)
                      -> cancelled     (DELETE; partial results persisted)
                      -> interrupted   (service shut down mid-run; the job
                                        is re-adopted and resumed on restart)
    queued -> cancelled                (cancelled before it ever started)

``queued``, ``running``, and ``interrupted`` are *resumable*: a restarted
:class:`~repro.service.manager.JobManager` re-queues them, and the
manifest-guarded result store means re-running a partially measured job
executes only the missing chips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from .. import rng as rng_mod
from ..dram.geometry import ChipGeometry
from ..errors import ConfigurationError, ReproError
from ..runner.campaign import campaign_schedule

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

ALL_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, INTERRUPTED)
#: States a restarted manager re-adopts into its queue.
RESUMABLE_STATES = (QUEUED, RUNNING, INTERRUPTED)
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Tenant names become path components (``<root>/<tenant>/<job_id>``), so
#: they are restricted to a filesystem- and URL-safe alphabet.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ServiceError(ReproError):
    """Base class for campaign-service failures."""


class QueueFullError(ServiceError):
    """The manager's bounded queue rejected a submission (HTTP 429)."""


class UnknownJobError(ServiceError, KeyError):
    """A job id the manager has never seen (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0] if self.args else ""


def validate_tenant(tenant: str) -> str:
    if not _TENANT_RE.match(tenant or ""):
        raise ConfigurationError(
            f"invalid tenant {tenant!r}: expected 1-64 chars of "
            "[A-Za-z0-9._-] starting with an alphanumeric"
        )
    return tenant


def _spec_number(key: str, value: Any) -> float:
    # bool is an int subclass, but ``true`` is never a meaningful number.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"spec key {key!r} must be a number, got {value!r}")
    return value


def _spec_int(key: str, value: Any) -> int:
    number = _spec_number(key, value)
    if isinstance(number, float) and not number.is_integer():
        raise ConfigurationError(f"spec key {key!r} must be an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class CampaignJobSpec:
    """One campaign submission: the CLI's knobs as a JSON document.

    Defaults mirror ``python -m repro campaign`` exactly, so a spec that
    only says ``{"chips_per_vendor": 8}`` measures the same population the
    CLI would -- the byte-identity contract between the service path and
    the blocking path rests on this.
    """

    chips_per_vendor: int = 4
    capacity_gbit: float = 1.0
    iterations: int = 2
    seed: int = rng_mod.DEFAULT_SEED
    intervals_s: Tuple[float, ...] = (0.512, 1.024, 2.048)
    temperatures_c: Tuple[float, ...] = (45.0, 55.0)
    chips_per_unit: Optional[int] = None
    max_retries: int = 1
    #: Submission-window size for this job's share of the shared pool;
    #: ``None`` uses the manager's pool width.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.chips_per_vendor <= 0:
            raise ConfigurationError("chips_per_vendor must be positive")
        if self.capacity_gbit <= 0:
            raise ConfigurationError("capacity_gbit must be positive")
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        campaign_schedule(self.intervals_s, self.temperatures_c)
        if self.chips_per_unit is not None and self.chips_per_unit <= 0:
            raise ConfigurationError("chips_per_unit must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.workers is not None and self.workers <= 0:
            raise ConfigurationError("workers must be positive")

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "chips_per_vendor": self.chips_per_vendor,
            "capacity_gbit": self.capacity_gbit,
            "iterations": self.iterations,
            "seed": self.seed,
            "intervals_s": [float(t) for t in self.intervals_s],
            "temperatures_c": [float(t) for t in self.temperatures_c],
            "chips_per_unit": self.chips_per_unit,
            "max_retries": self.max_retries,
            "workers": self.workers,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CampaignJobSpec":
        """Build a spec from a submission payload, rejecting unknown keys.

        A typo'd knob silently falling back to its default would run the
        wrong campaign; refusing with the allowed-key list is cheaper for
        everyone.  Mistyped values (a string count, a fractional chip
        count, a bare number where a list belongs) are refused the same
        way rather than coerced.
        """
        allowed = set(cls().to_json_dict())
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown spec keys: {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        kwargs: Dict[str, Any] = {}
        for key in ("chips_per_vendor", "iterations", "seed", "max_retries"):
            if key in data:
                kwargs[key] = _spec_int(key, data[key])
        if "capacity_gbit" in data:
            kwargs["capacity_gbit"] = float(
                _spec_number("capacity_gbit", data["capacity_gbit"])
            )
        for key in ("intervals_s", "temperatures_c"):
            if key in data:
                values = data[key]
                if not isinstance(values, (list, tuple)):
                    raise ConfigurationError(
                        f"spec key {key!r} must be a list of numbers, got {values!r}"
                    )
                kwargs[key] = tuple(float(_spec_number(key, v)) for v in values)
        for key in ("chips_per_unit", "workers"):
            if key in data and data[key] is not None:
                kwargs[key] = _spec_int(key, data[key])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    def geometry(self) -> ChipGeometry:
        return ChipGeometry.from_capacity_gigabits(self.capacity_gbit)

    def build_campaign(self):
        """The :class:`~repro.analysis.campaign.CharacterizationCampaign`
        this spec describes (imported lazily: service sits above analysis)."""
        from ..analysis.campaign import CharacterizationCampaign

        return CharacterizationCampaign(
            chips_per_vendor=self.chips_per_vendor,
            geometry=self.geometry(),
            iterations=self.iterations,
            seed=self.seed,
        )


@dataclass
class JobRecord:
    """The service's view of one job, as served by the HTTP API."""

    job_id: str
    tenant: str
    spec: CampaignJobSpec
    state: str = QUEUED
    created_ts: float = 0.0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    error: Optional[str] = None
    run_dir: Optional[str] = None
    #: Trace id correlating every span/event the job's run emits (carried
    #: on the submission, or minted by the manager when absent).
    trace_id: Optional[str] = None
    #: Latest progress snapshot from the engine's ProgressTracker: counts,
    #: throughput (units this run over seconds since its start) and ETA.
    progress: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.state not in ALL_STATES:
            raise ConfigurationError(f"unknown job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "spec": self.spec.to_json_dict(),
            "created_ts": self.created_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "error": self.error,
            "run_dir": self.run_dir,
            "trace_id": self.trace_id,
            "progress": dict(self.progress),
        }

    def snapshot(self) -> "JobRecord":
        """A detached copy safe to serialize while the job keeps mutating."""
        return replace(self, progress=dict(self.progress))
