"""Parallel campaign execution engine with checkpoint/resume.

The subsystem behind population-scale characterization runs:

``units``
    Work-unit and result schema (JSON round-trippable).
``store``
    Durable JSONL result store under a run directory; manifest-guarded
    resume.
``executors``
    Serial and process-pool backends with in-worker bounded retry.
``progress``
    Counts, throughput (mean since start) and ETA over the completion
    stream.
``engine``
    :class:`RunnerEngine`: skip persisted units, dispatch the rest, stream
    rows to the store, report keyed results.
``campaign``
    The characterization-campaign driver: per-chip decomposition, the
    one schedule the ``measure_chip`` oracle and the ``measure_fleet``
    worker both walk, and order-erasing aggregation.

Determinism contract: a unit's value is a pure function of its payload
(all randomness is keyed via :func:`repro.rng.derive`), and aggregation
sorts by unit identity -- so serial, N-worker, and interrupted-then-resumed
executions of the same campaign produce byte-identical summaries.
"""

from .campaign import (
    CHIP_UNIT_KIND,
    FLEET_UNIT_KIND,
    aggregate_chip_results,
    build_chip_units,
    build_fleet_units,
    campaign_fingerprint,
    campaign_schedule,
    default_chips_per_unit,
    expand_fleet_result,
    fleet_dispatch,
    measure_chip,
    measure_fleet,
)
from .engine import (
    ProgressCallback,
    RunnerEngine,
    RunReport,
    RunStats,
    UnitDispatch,
)
from .executors import (
    BACKEND_NAMES,
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_spec,
    default_worker_count,
    execute_unit,
)
from .interrupt import GracefulStop, graceful_stop
from .progress import ProgressTracker
from .store import (
    EVENTS_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    STATUS_COMPLETE,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    NullStore,
    RESULTS_NAME,
    ResultStore,
    manifest_spec_diff,
)
from .units import UnitFailure, UnitResult, WorkUnit

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "CHIP_UNIT_KIND",
    "EVENTS_NAME",
    "FLEET_UNIT_KIND",
    "GracefulStop",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "NullStore",
    "STATUS_COMPLETE",
    "STATUS_INTERRUPTED",
    "STATUS_RUNNING",
    "RESULTS_NAME",
    "ProcessPoolBackend",
    "ProgressCallback",
    "ProgressTracker",
    "ResultStore",
    "RunReport",
    "RunStats",
    "RunnerEngine",
    "SerialBackend",
    "UnitDispatch",
    "UnitFailure",
    "UnitResult",
    "WorkUnit",
    "aggregate_chip_results",
    "backend_from_spec",
    "build_chip_units",
    "build_fleet_units",
    "campaign_fingerprint",
    "campaign_schedule",
    "default_chips_per_unit",
    "default_worker_count",
    "execute_unit",
    "expand_fleet_result",
    "fleet_dispatch",
    "graceful_stop",
    "manifest_spec_diff",
    "measure_chip",
    "measure_fleet",
]
