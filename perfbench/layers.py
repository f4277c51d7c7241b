"""The program's layers as the traced run sees them.

:func:`install` wraps each layer's public methods and handler-table
methods on their classes (and module functions in the module that calls
them), so no file of the program changes.  :func:`per_layer_metrics` turns
one traced iteration into the per-layer table, and :data:`PREDICTIONS`
records, before any measurement, which end-to-end metric each layer should
move and on which workloads it should do no work at all.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Tracer

#: HIL handlers the engine dispatches to (the simulator's event table).
HIL_EVENT_HANDLERS = (
    "_on_task_visible",
    "_on_ready_batch",
    "_on_worker_done",
    "_on_worker_done_batched",
    "_on_master_done",
    "_on_master_done_batched",
)
#: HIL handlers of completed ARM-master jobs; one call per job the master ran.
HIL_MASTER_HANDLERS = ("_on_master_created", "_on_master_dispatched", "_on_master_finished")
NANOS_HANDLERS = ("_on_submitted", "_on_master_joins", "_on_task_done", "_on_task_done_batched")
#: Codec functions ``repro.service.server`` imports by name.
SERVER_CODECS = (
    ("encode_frame", "encode"),
    ("decode_frame", "decode"),
    ("request_from_document", "decode"),
    ("task_from_document", "decode"),
    ("events_to_document", "event_doc"),
    ("result_to_document", "result_doc"),
)


def install(tracer: Tracer) -> None:
    """Wrap every probed callable; must run before any simulator is built."""
    from repro.apps import registry
    from repro.core.dct import DependenceChainTracker
    from repro.core.gateway import Gateway
    from repro.core.picos import PicosAccelerator, SubmitStatus
    from repro.core.trs import TaskReservationStation
    from repro.faults.plan import FaultPlan
    from repro.runtime.nanos import NanosRuntimeSimulator
    from repro.service import server
    from repro.sim import snapshot
    from repro.sim.engine import EventQueue
    from repro.sim.hil import HILSimulator
    from repro.sim.session import EngineStepper, SimulationSession

    add = tracer.install
    # ``build_workload`` imports the registry function at call time.
    add(registry, "build_benchmark", "apps")
    for name in ("dispatch", "schedule", "pop_same_kind"):
        add(EventQueue, name, "engine")
    for name in ("run", "step") + HIL_EVENT_HANDLERS + HIL_MASTER_HANDLERS:
        add(HILSimulator, name, "hil")
    for name in ("deliver", "arm", "verify", "_on_timer", "_on_redeliver"):
        add(FaultPlan, name, "faults")

    accepted = SubmitStatus.ACCEPTED

    def is_accepted(result) -> int:
        return 1 if result.status is accepted else 0

    add(PicosAccelerator, "submit_task", "picos", observe=is_accepted)
    add(PicosAccelerator, "resume_submission", "picos", observe=is_accepted)
    for name in ("notify_finish", "can_resume"):
        add(PicosAccelerator, name, "picos")
    for name in ("submit", "resume", "can_resume", "notify_finished"):
        add(Gateway, name, "gateway")
    # process_batch returns (outcomes, stall); outcomes = dependences stored.
    add(DependenceChainTracker, "process_batch", "dct", observe=lambda r: len(r[0]))
    for name in ("process_finish_run", "can_accept"):
        add(DependenceChainTracker, name, "dct")
    for name in (
        "accept_task",
        "record_dependences",
        "drop_dependence_slots",
        "apply_submission_outcomes",
        "handle_ready_slot",
        "handle_finished",
    ):
        add(TaskReservationStation, name, "trs")
    for name in ("__init__", "run", "step") + NANOS_HANDLERS:
        add(NanosRuntimeSimulator, name, "nanos")
    add(SimulationSession, "__init__", "session", name="open")
    add(SimulationSession, "advance", "session", observe=lambda s: len(s.events))
    add(SimulationSession, "result", "session")
    add(EngineStepper, "advance", "session", name="stepper.advance")
    for name in ("capture", "restore", "fork", "_restore_simulator_state"):
        add(snapshot, name, "snapshot")
    add(snapshot.SimulationSnapshot, "document", "snapshot")
    add(snapshot.SimulationSnapshot, "from_document", "snapshot")
    for function, role in SERVER_CODECS:
        add(server, function, "protocol", observe=len if function == "encode_frame" else None)
    add(server.SimulationServer, "_admit_and_open", "server")


def _seconds(tracer: Tracer, layer: str, *names: str, inclusive: bool = False) -> float:
    probes = [tracer.get(layer, name) for name in names]
    return sum(p.total_ns if inclusive else p.self_ns for p in probes) / 1e9


def _calls(tracer: Tracer, layer: str, *names: str) -> int:
    return sum(tracer.get(layer, name).calls for name in names)


def per_layer_metrics(
    tracer: Tracer, work: Dict[str, int], run_cpu_s: float, uses_server: bool
) -> Dict[str, float]:
    """The per-layer table of one traced iteration.

    ``*_s`` values are exclusive CPU seconds of the layer, except
    ``server.open_blocking_s`` and ``server.slice_s`` (inclusive: the time
    one open, or one slice, holds the server's event loop).  Simulated
    counters come from ``work`` (the results' counters).
    """
    layer_s = tracer.layer_self_seconds()
    attempts = _calls(tracer, "picos", "submit_task", "resume_submission")
    accepted = sum(
        tracer.get("picos", name).observed for name in ("submit_task", "resume_submission")
    )
    batches = tracer.get("dct", "process_batch")
    codec_s = {
        role: sum(
            tracer.get("protocol", function).self_ns
            for function, r in SERVER_CODECS
            if r == role
        )
        / 1e9
        for role in ("encode", "decode", "event_doc", "result_doc")
    }
    frames = tracer.get("protocol", "encode_frame")
    residual = run_cpu_s - sum(layer_s.values()) if uses_server else 0.0
    return {
        "engine.self_s": layer_s.get("engine", 0.0),
        "engine.schedule_calls": _calls(tracer, "engine", "schedule"),
        "engine.events": work.get("events_processed", 0),
        "hil.self_s": layer_s.get("hil", 0.0),
        "hil.handler_calls": _calls(tracer, "hil", *HIL_EVENT_HANDLERS),
        "hil.master_kicks": _calls(tracer, "hil", *HIL_MASTER_HANDLERS),
        "faults.self_s": layer_s.get("faults", 0.0),
        "faults.deliver_calls": _calls(tracer, "faults", "deliver"),
        "faults.verify_s": _seconds(tracer, "faults", "verify", inclusive=True),
        "picos.self_s": layer_s.get("picos", 0.0),
        "picos.submit_attempts": attempts,
        "picos.accept_ratio": accepted / attempts if attempts else 0.0,
        "picos.finish_calls": _calls(tracer, "picos", "notify_finish"),
        "gateway.self_s": layer_s.get("gateway", 0.0),
        "gateway.stalls.dm_conflict": work.get("dm_conflicts", 0),
        "gateway.stalls.tm_full": work.get("tm_full_stalls", 0),
        "gateway.stalls.vm_full": work.get("vm_full_stalls", 0),
        "dct.self_s": layer_s.get("dct", 0.0),
        "dct.batch_calls": batches.calls,
        "dct.deps_per_batch": batches.observed / batches.calls if batches.calls else 0.0,
        "dct.finish_runs": _calls(tracer, "dct", "process_finish_run"),
        "dm.allocations": work.get("dm_allocations", 0),
        "dm.high_water": work.get("dm_high_water", 0),
        "vm.high_water": work.get("vm_high_water", 0),
        "trs.self_s": layer_s.get("trs", 0.0),
        "trs.ready_slot_calls": _calls(tracer, "trs", "handle_ready_slot"),
        "trs.chain_hops": work.get("chain_hops", 0),
        "tm.high_water": work.get("tm_high_water", 0),
        "nanos.self_s": layer_s.get("nanos", 0.0),
        "nanos.handler_calls": _calls(tracer, "nanos", *NANOS_HANDLERS),
        "session.self_s": layer_s.get("session", 0.0),
        "session.stepper_self_s": _seconds(tracer, "session", "stepper.advance"),
        "session.slices": _calls(tracer, "session", "advance"),
        "session.events": tracer.get("session", "advance").observed,
        "snapshot.encode_s": _seconds(tracer, "snapshot", "capture", "document", "to_bytes"),
        "snapshot.decode_s": _seconds(tracer, "snapshot", "from_document", "from_bytes"),
        "snapshot.restore_state_s": _seconds(
            tracer, "snapshot", "_restore_simulator_state", inclusive=True
        ),
        "snapshot.bytes": work.get("snapshot_bytes", 0),
        "protocol.encode_s": codec_s["encode"],
        "protocol.decode_s": codec_s["decode"],
        "protocol.event_doc_s": codec_s["event_doc"],
        "protocol.result_doc_s": codec_s["result_doc"],
        "protocol.frames_out": frames.calls,
        "protocol.bytes_out": frames.observed,
        "server.open_blocking_s": _seconds(tracer, "server", "_admit_and_open", inclusive=True),
        "server.slice_s": (
            _seconds(tracer, "session", "advance", inclusive=True) if uses_server else 0.0
        ),
        "transport.residual_s": residual,
    }


#: Per-layer metrics that are exact counts (must repeat on every run).
COUNT_METRICS = tuple(
    name
    for name in per_layer_metrics(Tracer(), {}, 0.0, False)
    if not name.endswith(("_s", "_ratio", "per_batch"))
)

#: Layer metric prefix -> (the end-to-end metric a change to the layer
#: should move, and where; the workloads on which the layer does no work).
#: The most specific prefix wins.
OTHERS_THAN_SERVICE = ("batch", "stream-hw-snapshot")
PREDICTIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "engine.": ("run_cpu_s on batch; op_* on stream", ()),
    "hil.": ("run_cpu_s on batch", ("service-nanos",)),
    "hil.master_kicks": ("run_cpu_s on batch", ("stream-hw-snapshot", "service-nanos")),
    "faults.": (
        "run_cpu_s on batch (its dormant-fault call)",
        ("stream-hw-snapshot", "service-nanos"),
    ),
    "picos.": ("run_cpu_s on batch; op_p50_ms on stream", ("service-nanos",)),
    "gateway.": ("op_p50_ms, op_p90_ms on stream", ("service-nanos",)),
    "dct.": ("run_cpu_s on batch, stream", ("service-nanos",)),
    "dm.": ("run_cpu_s on batch, stream", ("service-nanos",)),
    "vm.": ("run_cpu_s on batch, stream", ("service-nanos",)),
    "trs.": ("op_p90_ms on stream", ("service-nanos",)),
    "tm.": ("op_p90_ms on stream", ("service-nanos",)),
    "nanos.": ("op_p50_ms on service", OTHERS_THAN_SERVICE),
    "session.": ("op_* on stream; op_p50_ms on service", ("batch",)),
    "snapshot.": (
        "run_cpu_s, first_output_ms on stream",
        ("batch", "service-nanos"),
    ),
    "protocol.": ("op_p50_ms, first_output_ms on service", OTHERS_THAN_SERVICE),
    "server.": ("first_output_ms, op_p50_ms on service", OTHERS_THAN_SERVICE),
    "transport.": ("first_output_ms, op_p50_ms on service", OTHERS_THAN_SERVICE),
    "apps.": ("setup_s on all", ()),
    "trace.": ("-", ()),
}

#: Work that must happen on a workload for its layers to be measured at all.
REQUIRED_WORK: Dict[str, Tuple[str, ...]] = {
    "batch": (
        "engine.events",
        "hil.handler_calls",
        "hil.master_kicks",
        "picos.submit_attempts",
        "dct.batch_calls",
        "trs.ready_slot_calls",
        "faults.deliver_calls",
    ),
    "stream-hw-snapshot": (
        "engine.events",
        "hil.handler_calls",
        "picos.submit_attempts",
        "gateway.stalls.dm_conflict",
        "gateway.stalls.tm_full",
        "trs.chain_hops",
        "session.slices",
        "snapshot.bytes",
    ),
    "service-nanos": (
        "engine.events",
        "nanos.handler_calls",
        "session.slices",
        "protocol.frames_out",
    ),
}


def prediction_for(metric: str) -> Tuple[str, Tuple[str, ...]]:
    """The most specific prediction entry covering ``metric``."""
    best = ""
    for prefix in PREDICTIONS:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return PREDICTIONS.get(best, ("", ()))


def coverage_errors(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Predicted-zero cells that read nonzero, and required work that is missing."""
    errors = []
    for name, value in metrics.items():
        _, zero_on = prediction_for(name)
        if workload in zero_on and value != 0:
            errors.append(f"{name} = {value} on {workload}, predicted 0")
    for name in REQUIRED_WORK.get(workload, ()):
        if not metrics.get(name):
            errors.append(f"{name} = 0 on {workload}: the layer did no work")
    return errors
