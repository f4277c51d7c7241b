"""Declarative experiment runner: sweep expansion, parallelism and caching.

Every table and figure of the paper is a sweep -- applications crossed with
simulator backends, Dependence Memory designs, worker counts and problem
sizes -- and every point of a sweep is an independent simulation.  This
module turns that observation into infrastructure:

* :class:`SweepPoint` describes one job (one simulation, workload
  characterisation, overhead-model evaluation or resource estimate) as a
  small frozen value object;
* :class:`ExperimentSpec` declares a whole sweep and expands it into the
  cross product of its axes, in a deterministic order;
* :func:`run_points` executes the jobs -- serially or on a
  :class:`concurrent.futures.ProcessPoolExecutor` -- and memoizes each one
  in an on-disk JSON cache keyed by
  :meth:`repro.sim.request.SimulationRequest.cache_key` (trace content,
  backend name, Picos configuration, worker count, policy), so re-running
  an experiment replays instantly.  Simulation points are request
  templates: :meth:`SweepPoint.to_request` produces the exact
  ``SimulationRequest`` that both executes the job and mints its key.

Results come back as :class:`JobResult` objects whose ``metrics``,
``counters`` and ``payload`` dictionaries are JSON round-tripped before
they leave the runner; a fresh simulation and a cache hit are therefore
structurally identical, and a parallel run is byte-for-byte equal to a
serial one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import DMDesign, PicosConfig
from repro.core.hashing import stable_digest
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.overhead import NanosOverheadModel
from repro.sim.driver import simulate_request
from repro.sim.request import (
    SimulationRequest,
    WorkloadRef,
    build_workload,
    config_fields,
    workload_trace_digest,
)
from repro.sim.request import _TRACE_DIGEST_MEMO  # shared digest memo
from repro.traces.synthetic import first_and_average_dependences

#: Bumped whenever the job-result layout changes, so stale cache entries
#: from older versions of the runner are never replayed.
CACHE_SCHEMA_VERSION = 1

#: Job kinds understood by the runner.
KIND_SIMULATE = "simulate"
KIND_CHARACTERIZE = "characterize"
KIND_OVERHEAD = "overhead"
KIND_RESOURCES = "resources"

_KINDS = (KIND_SIMULATE, KIND_CHARACTERIZE, KIND_OVERHEAD, KIND_RESOURCES)

#: JSON-safe scalar / nested-tuple values allowed in ``SweepPoint.extra``.
ExtraValue = Union[str, int, float, bool, None, Tuple["ExtraValue", ...]]
ExtraItems = Tuple[Tuple[str, ExtraValue], ...]


# ----------------------------------------------------------------------
# sweep model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One independent job of an experiment sweep.

    The point is a pure value: hashable, picklable (it crosses the process
    boundary to the worker pool) and serialisable (it is stored next to the
    cached result for debuggability).  Enum-valued knobs are carried as
    their string values for exactly that reason.
    """

    #: Name of the owning experiment ("fig08", "table4", ...); cosmetic.
    experiment: str = ""
    #: What to do: simulate / characterize / overhead / resources.
    kind: str = KIND_SIMULATE
    #: Benchmark name (``repro.apps.registry``) or synthetic case name.
    workload: str = ""
    #: Block size (or H264dec granularity); ``None`` for synthetic cases.
    block_size: Optional[int] = None
    #: Problem-size override; ``None`` selects the paper's size.
    problem_size: Optional[int] = None
    #: Simulator backend name; required for ``simulate`` jobs.
    backend: Optional[str] = None
    #: Dependence Memory design (``DMDesign`` value) or ``None`` for the
    #: backend's default configuration.
    dm_design: Optional[str] = None
    num_workers: int = 12
    #: Task Scheduler policy (``SchedulingPolicy`` value).
    policy: str = SchedulingPolicy.FIFO.value
    #: Kind-specific parameters as a sorted tuple of ``(key, value)`` pairs.
    extra: ExtraItems = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; choose from {_KINDS}")
        if self.kind == KIND_SIMULATE and not self.backend:
            raise ValueError("simulate jobs require a backend name")
        if self.kind in (KIND_SIMULATE, KIND_CHARACTERIZE) and not self.workload:
            raise ValueError(f"{self.kind} jobs require a workload name")

    def extra_dict(self) -> Dict[str, ExtraValue]:
        """The ``extra`` pairs as a dictionary."""
        return dict(self.extra)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form (stored next to cached results)."""
        return dataclasses.asdict(self)

    def to_request(self) -> SimulationRequest:
        """The typed :class:`SimulationRequest` this sweep point describes.

        Only meaningful for ``simulate`` points: the declarative workload
        fields become a :class:`~repro.sim.request.WorkloadRef`, the
        configuration is resolved exactly as the cache key resolves it
        (an explicit ``config`` in ``extra`` wins over the ``dm_design``
        shortcut), and enum-valued knobs are rehydrated from their string
        forms.  Execution and cache keys both derive from this request,
        so a point can never simulate one thing and cache another.
        """
        if self.kind != KIND_SIMULATE:
            raise ValueError(f"only simulate points map to requests, not {self.kind!r}")
        assert self.backend is not None  # __post_init__ guarantees it
        return SimulationRequest(
            program=WorkloadRef(self.workload, self.block_size, self.problem_size),
            backend=self.backend,
            num_workers=self.num_workers,
            config=_config_for(self),
            policy=SchedulingPolicy(self.policy),
            overhead=_overhead_from_extra(self.extra_dict()),
        )


def overhead_extra(model: Optional[NanosOverheadModel]) -> ExtraItems:
    """Encode a Nanos++ overhead model override into ``extra`` pairs.

    The model is a frozen dataclass of scalars, so its field values travel
    through the cache key and across the process boundary unchanged; the
    default model contributes nothing (keeping keys stable for the common
    case).
    """
    if model is None:
        return ()
    return (("overhead", tuple(sorted(dataclasses.asdict(model).items()))),)


def _overhead_from_extra(extra: Dict[str, ExtraValue]) -> Optional[NanosOverheadModel]:
    encoded = extra.get("overhead")
    if encoded is None:
        return None
    return NanosOverheadModel(**{str(key): value for key, value in encoded})


def _config_fields(config: PicosConfig) -> Dict[str, ExtraValue]:
    """The configuration's fields as JSON-safe scalars (enums -> values)."""
    # Shared with SimulationRequest.config_fingerprint: the two renderings
    # must match or warm-cache keys and execution would disagree.
    return config_fields(config)  # type: ignore[return-value]


def config_extra(config: Optional[PicosConfig]) -> ExtraItems:
    """Encode a full Picos configuration override into ``extra`` pairs.

    ``dm_design`` on the point only selects among the paper-prototype
    configurations; a fully custom :class:`PicosConfig` travels through this
    encoding instead (every field is a scalar, so the round trip is exact).
    """
    if config is None:
        return ()
    return (("config", tuple(sorted(_config_fields(config).items()))),)


def _config_from_extra(extra: Dict[str, ExtraValue]) -> Optional[PicosConfig]:
    encoded = extra.get("config")
    if encoded is None:
        return None
    params = {str(key): value for key, value in encoded}  # type: ignore[union-attr]
    params["dm_design"] = DMDesign(params["dm_design"])
    return PicosConfig(**params)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: the cross product of a few axes.

    ``expand()`` produces the points in a fixed nested order -- workloads,
    then DM designs, then policies, then worker counts, then backends --
    so every run of the same spec enumerates (and reports) its jobs
    identically.
    """

    name: str
    kind: str = KIND_SIMULATE
    #: ``(workload, block_size)`` pairs; block size ``None`` for synthetic
    #: cases and characterisation-only workloads.
    workloads: Tuple[Tuple[str, Optional[int]], ...] = ()
    #: Backend names; must be set explicitly for ``simulate`` sweeps
    #: (``expand`` raises otherwise), irrelevant for the analytic kinds.
    backends: Tuple[Optional[str], ...] = (None,)
    dm_designs: Tuple[Optional[str], ...] = (None,)
    worker_counts: Tuple[int, ...] = (12,)
    policies: Tuple[str, ...] = (SchedulingPolicy.FIFO.value,)
    problem_size: Optional[int] = None
    extra: ExtraItems = ()

    def expand(self) -> List[SweepPoint]:
        """The sweep's points, in deterministic declaration order."""
        if self.kind == KIND_SIMULATE and not any(self.backends):
            raise ValueError(
                f"spec {self.name!r} declares simulate jobs but no backends; "
                "set backends=('hil-full', ...) or another registered name"
            )
        points: List[SweepPoint] = []
        for workload, block_size in self.workloads:
            for design in self.dm_designs:
                for policy in self.policies:
                    for workers in self.worker_counts:
                        for backend in self.backends:
                            points.append(
                                SweepPoint(
                                    experiment=self.name,
                                    kind=self.kind,
                                    workload=workload,
                                    block_size=block_size,
                                    problem_size=self.problem_size,
                                    backend=backend,
                                    dm_design=design,
                                    num_workers=workers,
                                    policy=policy,
                                    extra=self.extra,
                                )
                            )
        return points


# ----------------------------------------------------------------------
# job results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobResult:
    """Outcome of one sweep point, reduced to JSON-safe data.

    Full :class:`~repro.sim.results.SimulationResult` objects (with their
    per-task timelines) are too heavy to cache for 100k-task programs, so
    the runner keeps the quantities the paper's tables and figures consume.
    """

    kind: str
    #: Simulator identifier ("picos-hw-only", ...) or "analytic".
    simulator: str
    workload: str
    num_workers: int
    #: Headline numbers: speedup, makespan, L1st, thrTask, ...
    metrics: Mapping[str, float] = field(default_factory=dict)
    #: Hardware / runtime counters collected during a simulation.
    counters: Mapping[str, float] = field(default_factory=dict)
    #: Kind-specific structured data (curves, table rows, ...).
    payload: Mapping[str, object] = field(default_factory=dict)
    #: Cache key of the point (useful for debugging / eviction).
    key: str = ""
    #: Whether this result was replayed from the on-disk cache.
    cached: bool = False

    @property
    def speedup(self) -> float:
        """Speedup metric shortcut (0.0 for non-simulation jobs)."""
        return float(self.metrics.get("speedup", 0.0))

    def to_document(self) -> Dict[str, object]:
        """Serialisable form stored in the cache (runtime flags excluded)."""
        return {
            "kind": self.kind,
            "simulator": self.simulator,
            "workload": self.workload,
            "num_workers": self.num_workers,
            "metrics": dict(self.metrics),
            "counters": dict(self.counters),
            "payload": dict(self.payload),
        }

    @classmethod
    def from_document(
        cls, document: Mapping[str, object], *, key: str, cached: bool
    ) -> "JobResult":
        return cls(
            kind=str(document["kind"]),
            simulator=str(document["simulator"]),
            workload=str(document["workload"]),
            num_workers=int(document["num_workers"]),  # type: ignore[arg-type]
            metrics=dict(document.get("metrics", {})),  # type: ignore[arg-type]
            counters=dict(document.get("counters", {})),  # type: ignore[arg-type]
            payload=dict(document.get("payload", {})),  # type: ignore[arg-type]
            key=key,
            cached=cached,
        )


# ----------------------------------------------------------------------
# execution options
# ----------------------------------------------------------------------
def default_cache_dir() -> Path:
    """Cache location: ``$PICOS_CACHE_DIR`` or ``.picos-cache`` in the cwd."""
    return Path(os.environ.get("PICOS_CACHE_DIR", ".picos-cache"))


@dataclass(frozen=True)
class RunnerOptions:
    """How a sweep is executed.

    ``jobs=None`` (the library default) runs serially in-process, which is
    what the test and benchmark suites want; the command line defaults to
    ``os.cpu_count()`` instead.  ``cache_dir=None`` disables the on-disk
    cache entirely.
    """

    jobs: Optional[int] = None
    cache_dir: Optional[Union[str, Path]] = None

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return 1
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        return self.jobs


#: Options used when an experiment driver receives ``options=None``.
SERIAL_UNCACHED = RunnerOptions()


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """A directory of JSON documents, one per cache key.

    Writes are atomic (temp file + :func:`os.replace`), so a crashed or
    interrupted run never leaves a half-written entry behind, and two
    concurrent runs at worst do the same work twice.  A write that fails
    mid-dump removes its own temp file before the error propagates, and the
    constructor sweeps temp files old enough to be orphans of a killed
    process (age guards the sweep so a concurrent run's in-flight write is
    never yanked out from under it).
    """

    #: Temp files older than this are considered orphaned by a dead writer
    #: (an in-flight cache write lasts milliseconds, not minutes).
    STALE_TEMP_SECONDS = 600.0

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._sweep_stale_temp_files()

    def _sweep_stale_temp_files(self) -> None:
        """Delete orphaned ``*.tmp.*``/``*.corrupt.*`` writer leftovers."""
        if not self.directory.is_dir():
            return
        import time

        cutoff = time.time() - self.STALE_TEMP_SECONDS
        for pattern in ("*/*.tmp.*", "*/*.corrupt.*"):
            for leftover in self.directory.glob(pattern):
                try:
                    if leftover.stat().st_mtime < cutoff:
                        leftover.unlink()
                except OSError:
                    # Another sweep got there first, or the writer completed
                    # its os.replace between our glob and stat; both are fine.
                    continue

    def path_for(self, key: str) -> Path:
        # Two-level fan-out keeps directories small for big sweeps.
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result document for ``key``, or ``None``.

        Tolerant of whatever a concurrent or crashed writer may have left
        behind: a torn/partial/garbage JSON file is treated as a miss and
        quarantined (renamed to a ``.corrupt.<pid>`` sibling) so the
        recompute can re-``put`` the entry without fighting the wreck, and
        the evidence survives for inspection.  A non-mapping document is a
        plain miss.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as stream:
                document = json.load(stream)
        except OSError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if not isinstance(document, dict):
            return None
        if document.get("version") != CACHE_SCHEMA_VERSION:
            return None
        result = document.get("result")
        return result if isinstance(result, dict) else None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a torn cache entry out of the lookup path (best effort)."""
        try:
            os.replace(path, path.with_suffix(f".corrupt.{os.getpid()}"))
        except OSError:
            # Another reader quarantined it first, or the writer already
            # replaced it with a good entry; either way the miss stands.
            pass

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        result: Dict[str, object],
    ) -> Path:
        """Store ``result`` for ``key`` and return the entry's path.

        ``point`` annotates the entry with the sweep point that produced it
        (for humans reading the cache tree); service-layer writers that
        have no sweep point pass ``None``.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "version": CACHE_SCHEMA_VERSION,
            "key": key,
            "point": point.as_dict() if point is not None else None,
            "result": result,
        }
        # The temp name must be unique per *writer*, not just per process:
        # the service layer puts from worker threads, and two same-key
        # threads sharing one pid-suffixed temp file would race each
        # other's os.replace.
        temporary = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            with temporary.open("w", encoding="utf-8") as stream:
                json.dump(document, stream, sort_keys=True, indent=1)
            os.replace(temporary, path)
        except BaseException:
            # A failed dump (unserialisable value, full disk, interrupt)
            # must not leak its half-written temp file into the cache tree.
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


# ----------------------------------------------------------------------
# workload construction and cache keys
# ----------------------------------------------------------------------
# Workload building and trace digesting are the program-reference half of
# the typed request API and live in :mod:`repro.sim.request` now;
# ``build_workload`` / ``workload_trace_digest`` are re-exported above for
# the callers (and cache keys) that grew up with this module.


def _config_for(point: SweepPoint) -> Optional[PicosConfig]:
    custom = _config_from_extra(point.extra_dict())
    if custom is not None:
        return custom
    if point.dm_design is None:
        return None
    return PicosConfig.paper_prototype(DMDesign(point.dm_design))


def point_cache_key(point: SweepPoint) -> str:
    """Stable cache key of one sweep point.

    Simulation keys are minted by :meth:`SimulationRequest.cache_key` --
    trace content, backend name, configuration fingerprint, worker count
    and scheduling policy, the exact inputs that determine a simulation's
    outcome -- salted with the schema/package versions and the point's
    ``extra`` pairs.  The composition is byte-identical to the keys this
    function produced before the request type existed, so warm caches
    survive the refactor.  The experiment name is deliberately excluded:
    two figures sharing a point share its result.
    """
    # The package version participates so that simulator code changes
    # (shipped as version bumps) invalidate previously cached numbers;
    # CACHE_SCHEMA_VERSION only guards the document layout.
    from repro import __version__

    prefix: List[object] = [CACHE_SCHEMA_VERSION, __version__, point.kind]
    if point.kind == KIND_SIMULATE:
        digest = workload_trace_digest(
            point.workload, point.block_size, point.problem_size
        )
        # The overhead model already travels through ``extra`` (the suffix),
        # where it has always lived in the key; strip it from the request so
        # it does not contribute a second, key-changing part.
        request = point.to_request().without(("overhead",))
        return request.cache_key(
            prefix=prefix, suffix=(point.extra,), trace_digest=digest
        )
    parts = prefix
    if point.kind == KIND_CHARACTERIZE:
        parts.append(
            workload_trace_digest(point.workload, point.block_size, point.problem_size)
        )
    if point.kind == KIND_OVERHEAD:
        parts.append(point.num_workers)
    parts.append(point.extra)
    return stable_digest(*parts)


# ----------------------------------------------------------------------
# job execution
# ----------------------------------------------------------------------
def _normalize(document: Dict[str, object]) -> Dict[str, object]:
    """JSON round-trip so fresh and cached results are indistinguishable."""
    return json.loads(json.dumps(document, sort_keys=True))


def _execute_simulate(point: SweepPoint) -> Dict[str, object]:
    request = point.to_request()
    program = request.build_program()
    result = simulate_request(request)
    d1st, avg_deps = first_and_average_dependences(program)
    return {
        "kind": point.kind,
        "simulator": result.simulator,
        "workload": program.name or point.workload,
        "num_workers": result.num_workers,
        "metrics": {
            "makespan": result.makespan,
            "speedup": result.speedup,
            "efficiency": result.efficiency,
            "sequential_cycles": result.sequential_cycles,
            "num_tasks": result.num_tasks,
            "first_task_latency": result.first_task_latency(),
            "task_throughput": result.task_throughput(),
            "completion_throughput": result.completion_throughput(),
            "d1st": d1st,
            "avg_deps": avg_deps,
        },
        "counters": dict(result.counters),
        "payload": {},
    }


def _execute_characterize(point: SweepPoint) -> Dict[str, object]:
    program = build_workload(point.workload, point.block_size, point.problem_size)
    dep_lo, dep_hi = program.dependence_count_range
    return {
        "kind": point.kind,
        "simulator": "analytic",
        "workload": program.name or point.workload,
        "num_workers": 0,
        "metrics": {
            "num_tasks": program.num_tasks,
            "dep_lo": dep_lo,
            "dep_hi": dep_hi,
            "avg_task_size": program.average_task_size,
            "avg_deps": program.average_dependences,
            "sequential_cycles": program.sequential_cycles,
        },
        "counters": {},
        "payload": {},
    }


def _execute_overhead(point: SweepPoint) -> Dict[str, object]:
    extra = point.extra_dict()
    model = _overhead_from_extra(extra) or NanosOverheadModel()
    dep_counts = [int(v) for v in extra.get("dep_counts", ())]  # type: ignore[union-attr]
    thread_counts = [int(v) for v in extra.get("thread_counts", ())]  # type: ignore[union-attr]
    curves = model.overhead_table(dep_counts, thread_counts)
    return {
        "kind": point.kind,
        "simulator": "analytic",
        "workload": point.workload or "nanos-overhead",
        "num_workers": 0,
        "metrics": {},
        "counters": {},
        "payload": {"curves": curves, "thread_counts": thread_counts},
    }


def _execute_resources(point: SweepPoint) -> Dict[str, object]:
    from repro.hardware.resources import DeviceBudget, table3_rows

    extra = point.extra_dict()
    device_fields = dict(extra.get("device", ()))  # type: ignore[arg-type]
    if device_fields:
        device = DeviceBudget(**{str(k): v for k, v in device_fields.items()})
        rows = table3_rows(device)
    else:
        rows = table3_rows()
    return {
        "kind": point.kind,
        "simulator": "analytic",
        "workload": point.workload or "resource-model",
        "num_workers": 0,
        "metrics": {},
        "counters": {},
        "payload": {"rows": rows},
    }


_EXECUTORS = {
    KIND_SIMULATE: _execute_simulate,
    KIND_CHARACTERIZE: _execute_characterize,
    KIND_OVERHEAD: _execute_overhead,
    KIND_RESOURCES: _execute_resources,
}


def _execute_point(point: SweepPoint) -> Dict[str, object]:
    """Run one job and return its normalised result document.

    Module-level so it pickles cleanly into pool worker processes; the
    worker rebuilds the task program from the point's declarative fields
    (generation is deterministic) rather than shipping programs around.
    """
    return _normalize(_EXECUTORS[point.kind](point))


_WorkloadTriple = Tuple[str, Optional[int], Optional[int]]


def _digest_triple(triple: _WorkloadTriple) -> str:
    """Pool-friendly wrapper around :func:`workload_trace_digest`."""
    return workload_trace_digest(*triple)


def _prefetch_trace_digests(
    points: Sequence[SweepPoint], jobs: int
) -> None:
    """Fill the trace-digest memo for ``points``, in parallel when allowed.

    Cache-key computation has to digest each workload's trace in the parent
    process; doing that serially would bottleneck a cold parallel run on
    single-core program generation, so the distinct workloads are digested
    through a short-lived pool first.
    """
    triples: List[_WorkloadTriple] = []
    seen = set()
    for point in points:
        if point.kind not in (KIND_SIMULATE, KIND_CHARACTERIZE):
            continue
        triple = (point.workload, point.block_size, point.problem_size)
        if triple in seen or triple in _TRACE_DIGEST_MEMO:
            continue
        seen.add(triple)
        triples.append(triple)
    if jobs > 1 and len(triples) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(triples))) as pool:
            for triple, digest in zip(triples, pool.map(_digest_triple, triples)):
                _TRACE_DIGEST_MEMO[triple] = digest
    else:
        for triple in triples:
            _TRACE_DIGEST_MEMO[triple] = _digest_triple(triple)


def _is_pool_safe(point: SweepPoint) -> bool:
    """Whether a point may run in a worker process.

    Built-in backends re-register themselves when a worker imports the
    simulator modules, but a plug-in backend registered by user code in
    the parent does not exist in a freshly spawned worker; such points are
    executed in-process instead of crashing the pool under spawn/forkserver
    start methods.
    """
    if point.kind != KIND_SIMULATE:
        return True
    from repro.sim.backend import BUILTIN_BACKENDS

    return point.backend in BUILTIN_BACKENDS


# ----------------------------------------------------------------------
# sweep execution
# ----------------------------------------------------------------------
def run_points(
    points: Sequence[SweepPoint],
    options: Optional[RunnerOptions] = None,
) -> Dict[SweepPoint, JobResult]:
    """Execute a list of sweep points and return results in input order.

    Cache hits are replayed without simulating; the remaining jobs run on a
    process pool when ``options.jobs`` allows.  The returned mapping
    preserves the order of ``points`` (duplicates collapse onto one entry),
    so downstream rendering is independent of completion order.
    """
    options = options if options is not None else SERIAL_UNCACHED
    cache = ResultCache(options.cache_dir) if options.cache_dir is not None else None
    jobs = options.resolved_jobs()

    if cache is not None:
        _prefetch_trace_digests(points, jobs)

    results: Dict[SweepPoint, JobResult] = {}
    pending: List[SweepPoint] = []
    keys: Dict[SweepPoint, str] = {}
    for point in points:
        if point in keys:
            continue
        # Key computation builds the workload to digest its trace, so it is
        # only worth doing when there is a cache to consult.
        key = point_cache_key(point) if cache is not None else ""
        keys[point] = key
        document = cache.get(key) if cache is not None else None
        if document is not None:
            results[point] = JobResult.from_document(document, key=key, cached=True)
        else:
            pending.append(point)

    if pending:
        pooled = [p for p in pending if _is_pool_safe(p)]
        documents: Dict[SweepPoint, Dict[str, object]] = {}
        if jobs > 1 and len(pooled) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(pooled))) as pool:
                for point, document in zip(pooled, pool.map(_execute_point, pooled)):
                    documents[point] = document
        else:
            pooled = []
        for point in pending:
            if point not in documents:
                # Serial fallback: small batches, jobs=1, and points whose
                # backend only exists in this process.
                documents[point] = _execute_point(point)
        for point in pending:
            key = keys[point]
            document = documents[point]
            if cache is not None:
                cache.put(key, point, document)
            results[point] = JobResult.from_document(document, key=key, cached=False)

    return {point: results[point] for point in points}


def run_sweep(
    spec: ExperimentSpec,
    options: Optional[RunnerOptions] = None,
) -> Dict[SweepPoint, JobResult]:
    """Expand ``spec`` and execute every point (see :func:`run_points`)."""
    return run_points(spec.expand(), options)


def require_config_sensitive_backend(experiment: str, backend: Optional[str]) -> None:
    """Reject built-in backends that ignore the Picos configuration.

    Experiments that sweep the DM-design axis (or read Picos hardware
    counters) are meaningless on the software runtime and the roofline
    scheduler: every design would simulate identically and hardware
    counters like ``dm_conflicts`` do not exist.  Unknown (plug-in)
    backends pass through -- a custom hardware model may well be
    configuration sensitive.
    """
    from repro.sim.backend import BACKEND_NANOS, BACKEND_PERFECT

    if backend in (BACKEND_NANOS, BACKEND_PERFECT):
        raise ValueError(
            f"{experiment} sweeps the Picos configuration; the {backend!r} "
            "backend ignores it (use one of the hil-* backends or a "
            "configuration-sensitive plug-in)"
        )
