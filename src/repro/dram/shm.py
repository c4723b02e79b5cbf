"""Zero-copy shared-memory weak-cell populations for fleet campaigns.

No campaign or service job uses this module any more: every work unit
draws its chips' populations in the worker.  It stays only for the
benchmark's traced run, which wraps ``SharedPopulationStore.create`` and
``build_population_samples`` (DESIGN.md, "Shared-memory populations").
What follows describes the route campaigns took until then.

Fleet work units used to pickle nothing but chip *coordinates* -- and then
pay the full weak-tail redraw (`RetentionSampler.sample`) inside every
worker, once per chip per unit.  This module moves the population itself
into one ``multiprocessing.shared_memory`` segment built once per run:

``build_population_samples``
    Draws every chip's :class:`~repro.dram.retention.WeakCellSample`
    (bit-identical to what chip construction would draw -- it calls
    :func:`repro.dram.chip.sample_weak_cells`), optionally fanning the
    per-chip draws out across a process pool.  Sampling is per-chip RNG
    work either way; the pool only buys wall-clock.

``SharedPopulationStore``
    Packs those samples into a single struct-of-arrays segment -- all
    ``indices``, then all ``mu_wc_s``, ``sigma_s``, ``susceptibility``,
    ``vrt_flag``, ``orientation`` -- with chips laid out in ascending
    ``chip_id`` order.  Workers :meth:`~SharedPopulationStore.attach` by
    segment name from a tiny JSON descriptor in the unit payload and get
    read-only numpy *views*: no copy on transport, no redraw on arrival,
    and consecutive chips form contiguous slices a
    :class:`~repro.dram.fleet.FleetPopulation` can use directly as its
    concatenated backing arrays.

Lifecycle (the part that has to survive violence)
-------------------------------------------------
The store keeps Python's ``resource_tracker`` out of the segment's life:
left to it, the tracker prints "leaked shared_memory" warnings -- and
unlinks segments out from under a resumable run -- whenever any
participant dies.  The creator *disowns* the name right after creating
it, and workers attach without registering at all (``track=False`` on
Python >= 3.13, a tracker-free mapping before): pool workers share one
tracker, which keeps a set, so concurrent register-then-unregister pairs
from two workers would unregister one entry twice and print ``KeyError``
tracebacks.  Instead the campaign owns cleanup explicitly:

* normal completion / cooperative cancel / exceptions: the campaign's
  ``finally`` block unlinks the segment;
* kill -9: a ``shm.json`` sidecar in the run directory records the segment
  name, and :func:`cleanup_stale_segment` unlinks it the next time the run
  directory is opened (resume) -- so a SIGKILLed campaign leaves at most
  one segment, reclaimed on resume, with zero tracker warnings;
* multi-tenant service: segment names are unique per run
  (:func:`new_segment_name`), so concurrent jobs sharing one process pool
  can never collide on -- or unlink -- each other's populations.
"""

from __future__ import annotations

import json
import mmap
import os
import secrets
import sys
from concurrent.futures import Executor, ProcessPoolExecutor
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import threading

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from .chip import sample_weak_cells
from .geometry import ChipGeometry
from .retention import WeakCellSample
from .vendor import vendor_by_name

#: Struct-of-arrays field layout, in segment order.  dtypes are exactly the
#: dtypes :class:`~repro.dram.retention.RetentionSampler` produces, so views
#: are drop-in replacements for freshly drawn arrays.
_FIELDS: Tuple[Tuple[str, np.dtype], ...] = (
    ("indices", np.dtype(np.int64)),
    ("mu_wc_s", np.dtype(np.float64)),
    ("sigma_s", np.dtype(np.float64)),
    ("susceptibility", np.dtype(np.float64)),
    ("vrt_flag", np.dtype(np.bool_)),
    ("orientation", np.dtype(np.uint8)),
)

#: Run-directory sidecar recording the live segment, for crash reclamation.
SIDECAR_NAME = "shm.json"

#: Mappings whose close() hit live numpy views.  Holding the SharedMemory
#: objects here keeps their ``__del__`` (which would retry the close and
#: raise an unraisable BufferError) from ever running; the mappings last
#: until process exit, exactly the documented best-effort cost model.
_PINNED_MAPPINGS: List[shared_memory.SharedMemory] = []

#: Segments this process currently has mapped (name -> buffer bytes).
#: Purely observational accounting behind :func:`active_segment_stats`,
#: which the benchmark's traced run reads.
_ACTIVE_SEGMENTS: Dict[str, int] = {}
_ACTIVE_LOCK = threading.Lock()


def _note_mapped(name: str, nbytes: int) -> None:
    with _ACTIVE_LOCK:
        _ACTIVE_SEGMENTS[name] = int(nbytes)


def _note_unmapped(name: str) -> None:
    with _ACTIVE_LOCK:
        _ACTIVE_SEGMENTS.pop(name, None)


def active_segment_stats() -> Tuple[int, int]:
    """(count, total bytes) of segments currently mapped by this process."""
    with _ACTIVE_LOCK:
        return len(_ACTIVE_SEGMENTS), sum(_ACTIVE_SEGMENTS.values())


def new_segment_name() -> str:
    """A collision-free segment name, unique per (process, call).

    Uniqueness is what isolates tenants sharing one service pool: two
    concurrent campaigns can never attach -- or unlink -- each other's
    populations by name.
    """
    return f"repro-fleet-{os.getpid()}-{secrets.token_hex(6)}"


def _disown(shm: shared_memory.SharedMemory) -> None:
    """Remove a freshly created ``shm`` from this process's resource tracker.

    Creation registers the name; left registered, any participant's exit
    triggers "leaked shared_memory" warnings and -- far worse -- a
    tracker-side unlink that yanks the population out from under every
    other process still using it.  The campaign owns the unlink.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker API drift
        pass


class _UntrackedSegment(shared_memory.SharedMemory):
    """An existing POSIX segment mapped without telling the resource tracker.

    Before Python 3.13, ``SharedMemory.__init__`` registers every segment
    it opens.  This is its attach branch minus that call: open by name,
    map the whole segment read-write.
    """

    def __init__(self, name: str) -> None:  # deliberately no super().__init__
        import _posixshmem

        self._name = "/" + name
        self._fd = _posixshmem.shm_open(self._name, os.O_RDWR, mode=0o600)
        try:
            self._size = os.fstat(self._fd).st_size
            self._mmap = mmap.mmap(self._fd, self._size)
        except OSError:
            os.close(self._fd)
            self._fd = -1
            raise
        self._buf = memoryview(self._mmap)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without any resource-tracker registration."""
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    if os.name != "posix":  # pragma: no cover - only POSIX registers
        return shared_memory.SharedMemory(name=name)
    return _UntrackedSegment(name)


class SharedPopulationStore:
    """One campaign's weak-cell populations in a single shared segment.

    Chips are packed in ascending ``chip_id`` order, each field laid out
    contiguously across chips (struct-of-arrays), so a fleet chunk of
    consecutive chips sees its concatenated per-field data as one
    contiguous slice -- the zero-copy backing for
    :class:`~repro.dram.fleet.FleetPopulation`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        chips: "Dict[int, Tuple[int, int]]",
        owner: bool,
        total: Optional[int] = None,
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._chips = dict(chips)
        self._owner = owner
        # ``total`` is the segment-wide cell count the field layout is
        # built from.  It must come from the descriptor when attaching:
        # a chunk descriptor lists only its own chips, but the field
        # offsets depend on every chip in the segment.
        if total is None:
            total = sum(length for _start, length in chips.values())
        self._total = int(total)
        self._fields: Dict[str, np.ndarray] = {}
        offset = 0
        buf = shm.buf
        for name, dtype in _FIELDS:
            arr = np.frombuffer(buf, dtype=dtype, count=self._total, offset=offset)
            arr.flags.writeable = False
            self._fields[name] = arr
            offset += self._total * dtype.itemsize

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        samples: Mapping[int, WeakCellSample],
        name: Optional[str] = None,
    ) -> "SharedPopulationStore":
        """Pack per-chip samples into a fresh segment (creator side)."""
        if not samples:
            raise ConfigurationError("a shared population store needs at least one chip")
        ordered = sorted(samples.items())
        chips: Dict[int, Tuple[int, int]] = {}
        start = 0
        for chip_id, sample in ordered:
            chips[int(chip_id)] = (start, len(sample))
            start += len(sample)
        total = start
        itemsize = sum(dtype.itemsize for _name, dtype in _FIELDS)
        nbytes = max(1, total * itemsize)
        with obs.span("shm.pack", chips=len(chips), cells=total, bytes=nbytes):
            shm = shared_memory.SharedMemory(
                create=True,
                size=nbytes,
                name=name if name is not None else new_segment_name(),
            )
            _disown(shm)
            offset = 0
            for field, dtype in _FIELDS:
                arr = np.frombuffer(shm.buf, dtype=dtype, count=total, offset=offset)
                for (chip_id, sample), (chip_start, length) in zip(
                    ordered, chips.values()
                ):
                    arr[chip_start : chip_start + length] = getattr(sample, field)
                offset += total * dtype.itemsize
        _note_mapped(shm.name, shm.buf.nbytes)
        return cls(shm, chips, owner=True)

    @classmethod
    def attach(cls, descriptor: Mapping[str, Any]) -> "SharedPopulationStore":
        """Attach to an existing segment from its JSON descriptor."""
        with obs.span(
            "shm.attach",
            segment=str(descriptor.get("segment")),
            chips=len(descriptor.get("chips", ())),
        ):
            shm = _attach_untracked(str(descriptor["segment"]))
        _note_mapped(shm.name, shm.buf.nbytes)
        chips = {
            int(chip_id): (int(start), int(length))
            for chip_id, (start, length) in descriptor["chips"].items()
        }
        return cls(shm, chips, owner=False, total=int(descriptor["total"]))

    def descriptor(
        self, chip_ids: Optional[Sequence[int]] = None
    ) -> Dict[str, Any]:
        """JSON handle a worker attaches from: segment name + chip layout.

        ``chip_ids`` restricts the layout to a chunk's members, keeping unit
        payloads proportional to the chunk, not the campaign.
        """
        assert self._shm is not None
        if chip_ids is None:
            chips: Mapping[int, Tuple[int, int]] = self._chips
        else:
            chips = {int(c): self._bounds(int(c)) for c in chip_ids}
        return {
            "segment": self._shm.name,
            "total": self._total,
            "chips": {str(chip_id): [start, length] for chip_id, (start, length) in chips.items()},
        }

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _bounds(self, chip_id: int) -> Tuple[int, int]:
        try:
            return self._chips[chip_id]
        except KeyError:
            raise ConfigurationError(
                f"chip {chip_id!r} is not in the shared population store"
            ) from None

    def __contains__(self, chip_id: int) -> bool:
        return int(chip_id) in self._chips

    def __len__(self) -> int:
        return len(self._chips)

    @property
    def segment_name(self) -> str:
        assert self._shm is not None
        return self._shm.name

    def sample(self, chip_id: int) -> WeakCellSample:
        """Read-only zero-copy views of one chip's weak-cell arrays."""
        start, length = self._bounds(int(chip_id))
        end = start + length
        return WeakCellSample(
            **{name: self._fields[name][start:end] for name, _dtype in _FIELDS}
        )

    def fleet_backing(
        self, chip_ids: Sequence[int]
    ) -> Optional[Dict[str, np.ndarray]]:
        """Contiguous concatenated field slices for a fleet of chips.

        Returns ``{"mu_wc_s", "sigma_s", "susceptibility"}`` views covering
        exactly the chips in order -- the arrays
        :class:`~repro.dram.fleet.FleetPopulation` would otherwise build
        with ``np.concatenate`` -- or ``None`` when the chips are not
        adjacent in the segment (e.g. a resume's sparse remainder), in
        which case the caller falls back to concatenation.
        """
        if not chip_ids:
            return None
        start, length = self._bounds(int(chip_ids[0]))
        cursor = start + length
        for chip_id in chip_ids[1:]:
            chip_start, length = self._bounds(int(chip_id))
            if chip_start != cursor:
                return None
            cursor += length
        return {
            name: self._fields[name][start:cursor]
            for name in ("mu_wc_s", "sigma_s", "susceptibility")
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (views become invalid).

        Best-effort: if live numpy views still pin the buffer the unmap is
        skipped (the mapping then lasts until process exit, exactly the
        pre-shared-memory cost model) rather than crashing the worker.
        """
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        self._fields.clear()
        _note_unmapped(shm.name)
        try:
            shm.close()
        except BufferError:
            _PINNED_MAPPINGS.append(shm)

    def unlink(self) -> None:
        """Remove the segment from the system (creator side)."""
        shm = self._shm
        if shm is None:
            return
        name = shm.name
        self.close()
        unlink_segment(name)

    def __enter__(self) -> "SharedPopulationStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def unlink_segment(name: str) -> bool:
    """Unlink ``name`` if it exists; ``True`` when something was removed.

    No ``_disown`` here: attaching registers the name with the tracker and
    ``SharedMemory.unlink`` unregisters it again -- already balanced.  A
    second unregister would hit the tracker daemon as a KeyError.
    """
    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - no views exist here
            _PINNED_MAPPINGS.append(shm)
    return True


# ----------------------------------------------------------------------
# Population building (creator side)
# ----------------------------------------------------------------------

#: One chip's sampling coordinates -- everything sample_weak_cells needs,
#: as plain JSON so chunks can cross the pool boundary.
SampleSpec = Dict[str, Any]


def chip_sample_spec(payload: Mapping[str, Any], max_trefi_s: float) -> SampleSpec:
    """Extract a sampling spec from a per-chip unit payload."""
    return {
        "chip_id": int(payload["chip_id"]),
        "vendor": str(payload["vendor"]),
        "seed": int(payload["seed"]),
        "geometry": {k: int(v) for k, v in payload["geometry"].items()},
        "max_trefi_s": float(max_trefi_s),
    }


def _sample_from_spec(spec: SampleSpec) -> WeakCellSample:
    return sample_weak_cells(
        vendor=vendor_by_name(str(spec["vendor"])),
        geometry=ChipGeometry(**{k: int(v) for k, v in spec["geometry"].items()}),
        seed=int(spec["seed"]),
        chip_id=int(spec["chip_id"]),
        max_trefi_s=float(spec["max_trefi_s"]),
    )


def _sample_spec_chunk(specs: List[SampleSpec]) -> List[Tuple[int, WeakCellSample]]:
    """Pool worker: draw one chunk of chip populations."""
    return [(int(spec["chip_id"]), _sample_from_spec(spec)) for spec in specs]


def build_population_samples(
    specs: Sequence[SampleSpec],
    executor: Optional[Executor] = None,
    workers: Optional[int] = None,
) -> Dict[int, WeakCellSample]:
    """Draw every chip's weak-cell sample, in parallel when it pays.

    With an ``executor`` (e.g. the service's shared pool) or ``workers > 1``,
    chips are sampled in chunks across processes and the arrays shipped back
    in one pickle per chunk -- the only time this population ever crosses a
    process boundary.  Serial otherwise.  Values are bit-identical in every
    mode (each chip's draw is a pure function of its spec).
    """
    specs = list(specs)
    if not specs:
        return {}
    parallel = executor is not None or (workers is not None and workers > 1)
    if not parallel or len(specs) < 8:
        with obs.span("shm.build_samples", chips=len(specs), mode="serial"):
            return {int(s["chip_id"]): _sample_from_spec(s) for s in specs}
    pool_size = workers if workers is not None and workers > 1 else (os.cpu_count() or 1)
    # ~4 chunks per worker amortizes submission overhead while keeping the
    # tail of the last chunks short.
    chunk = max(1, len(specs) // (4 * pool_size) + 1)
    chunks = [specs[i : i + chunk] for i in range(0, len(specs), chunk)]
    samples: Dict[int, WeakCellSample] = {}
    with obs.span("shm.build_samples", chips=len(specs), mode="pooled"):
        if executor is not None:
            results = executor.map(_sample_spec_chunk, chunks)
            for batch in results:
                samples.update(batch)
        else:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                for batch in pool.map(_sample_spec_chunk, chunks):
                    samples.update(batch)
    return samples


# ----------------------------------------------------------------------
# Run-directory sidecar: crash-safe segment reclamation
# ----------------------------------------------------------------------

def write_sidecar(run_dir: Union[str, Path], segment_name: str) -> None:
    """Record the live segment in the run directory (before work starts)."""
    path = Path(run_dir)
    path.mkdir(parents=True, exist_ok=True)
    tmp = path / (SIDECAR_NAME + ".tmp")
    tmp.write_text(json.dumps({"segment": segment_name}))
    os.replace(tmp, path / SIDECAR_NAME)


def remove_sidecar(run_dir: Union[str, Path]) -> None:
    try:
        (Path(run_dir) / SIDECAR_NAME).unlink()
    except FileNotFoundError:
        pass


def cleanup_stale_segment(run_dir: Union[str, Path]) -> Optional[str]:
    """Reclaim the segment a SIGKILLed run left behind, if any.

    Called whenever a run directory is (re)opened: reads the sidecar, unlinks
    the named segment if it still exists, and removes the sidecar.  Returns
    the reclaimed segment name, or ``None`` when there was nothing to do.
    """
    path = Path(run_dir) / SIDECAR_NAME
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    name = data.get("segment")
    reclaimed = unlink_segment(str(name)) if name else False
    remove_sidecar(run_dir)
    return str(name) if reclaimed else None
