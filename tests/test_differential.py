"""Cross-backend differential fuzz suite.

Hypothesis generates seeds/shapes for :func:`repro.traces.synthetic.
random_program` and every generated task graph is run through all five
backends.  Four families of invariants pin the whole stack:

* **roofline bound** -- the analytic lower bound ``max(critical path,
  ceil(total work / workers))`` holds for every backend's makespan.  The
  perfect backend realises that roofline with *zero* overhead, so it
  anchors the bound family; its makespan is **not** asserted to lower-bound
  the other backends directly because greedy list scheduling is subject to
  Graham scheduling anomalies (a backend that pays overhead can still beat
  the greedy order on adversarial graphs -- the committed golden matrix
  contains a real instance: ``heat/256 nanos w4`` beats ``perfect w4``);
* **session parity** -- streaming a program through the ``Session`` API is
  cycle-identical to the batch path, for every backend;
* **cache-key stability** -- request cache keys are reproducible across
  *processes* (they seed the on-disk experiment cache, so any process-local
  state leaking into them would poison shared caches);
* **engine equivalence** -- the calendar-queue :class:`EventQueue` delivers
  random schedules event-for-event identically to the binary-heap
  reference :class:`HeapEventQueue` (including ``pop_same_kind`` and
  ``iter_until`` interleavings);
* **datapath equivalence** -- the flat integer-handle DM/VM/TM/TRS/DCT
  core produces results identical field-for-field to the object-based
  reference implementation (``repro.core.reference``), including under
  DM-conflict -> recycle -> re-allocate pressure.  The CI job replays
  this leg a second time with ``REPRO_REFERENCE_DATAPATH=1`` forcing the
  oracle, so the selection switch itself stays covered;
* **snapshot determinism** -- checkpointing a session at a fuzz-drawn
  cycle and restoring it (and checkpointing the *restored* run again at a
  later drawn cycle) yields results field-for-field identical to the
  uninterrupted run, for every backend.  Both CI replays cover it, so the
  invariant holds under the flat and the reference datapath alike;
* **faulted determinism** -- a fuzz-drawn fault plan (worker kill + seeded
  event-level chaos) replays field-for-field identically from the same
  seeds, on both HIL datapaths, and a checkpoint taken mid-fault restores
  into exactly the straight faulted run (the CI ``fault-matrix`` job
  replays this family under ``REPRO_REFERENCE_DATAPATH=1`` as well).

Run deterministically with ``pytest tests/test_differential.py
--hypothesis-seed=0`` (the CI job does exactly that).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="the differential suite fuzzes via hypothesis"
)
from hypothesis import given, settings, strategies as st  # noqa: E402

import repro
from repro.core.config import DMDesign, PicosConfig
from repro.faults import FaultKind, FaultScenario, FaultTarget, FaultTrigger
from repro.runtime.dependence_analysis import build_task_graph
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.engine import EventQueue, HeapEventQueue
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import SimulationRequest
from repro.sim.session import lifecycle_events, open_session
from repro.sim.snapshot import KIND_MID_RUN, capture, restore
from repro.traces.synthetic import random_program

from tests.helpers import make_program

#: Keep the graphs small: five backends x many examples must stay in CI
#: budget, and the invariants are shape-driven, not size-driven.
graph_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "num_tasks": st.integers(min_value=1, max_value=40),
        "num_addresses": st.integers(min_value=8, max_value=24),
        "max_deps": st.integers(min_value=0, max_value=8),
        "max_duration": st.integers(min_value=1, max_value=400),
    }
)

workers = st.sampled_from([1, 2, 4, 7])


def analytic_lower_bound(program, num_workers: int) -> int:
    """``max(critical path, ceil(work / P))``: a bound no schedule beats."""
    graph = build_task_graph(program)
    work = program.sequential_cycles
    return max(
        graph.critical_path_length(), -(-work // num_workers)  # ceil division
    )


class TestCrossBackendInvariants:
    @settings(max_examples=25, deadline=None)
    @given(params=graph_params, num_workers=workers)
    def test_roofline_bound_holds_for_every_backend(self, params, num_workers):
        program = random_program(**params)
        bound = analytic_lower_bound(program, num_workers)
        for backend in sorted(BUILTIN_BACKENDS):
            result = simulate_request(
                SimulationRequest.for_program(
                    program, backend=backend, num_workers=num_workers
                )
            )
            assert result.num_tasks == program.num_tasks
            assert result.makespan >= bound, (
                f"{backend} makespan {result.makespan} beats the analytic "
                f"roofline bound {bound}"
            )

    @settings(max_examples=25, deadline=None)
    @given(params=graph_params, num_workers=workers)
    def test_perfect_realises_the_roofline_anchor(self, params, num_workers):
        """The zero-overhead backend is exact on trivially parallel graphs.

        With one worker any work-conserving schedule is tight, so the
        perfect backend must *hit* the bound there, not just respect it.
        """
        program = random_program(**params)
        result = simulate_request(
            SimulationRequest.for_program(
                program, backend="perfect", num_workers=1
            )
        )
        assert result.makespan == program.sequential_cycles

    @settings(max_examples=10, deadline=None)
    @given(params=graph_params, num_workers=workers)
    def test_streamed_session_equals_batch(self, params, num_workers):
        program = random_program(**params)
        for backend in sorted(BUILTIN_BACKENDS):
            request = SimulationRequest.for_program(
                program, backend=backend, num_workers=num_workers
            )
            batch = simulate_request(request)
            streaming = SimulationRequest.streaming(
                program.name, backend=backend, num_workers=num_workers
            )
            with open_session(streaming) as session:
                session.submit_program(iter(program))
                streamed = session.result()
            assert dataclasses.asdict(streamed) == dataclasses.asdict(batch)

    @settings(max_examples=10, deadline=None)
    @given(params=graph_params, num_workers=workers)
    def test_repeated_runs_are_deterministic(self, params, num_workers):
        program = random_program(**params)
        for backend in sorted(BUILTIN_BACKENDS):
            request = SimulationRequest.for_program(
                program, backend=backend, num_workers=num_workers
            )
            first = simulate_request(request)
            second = simulate_request(request)
            assert dataclasses.asdict(first) == dataclasses.asdict(second)


class TestSnapshotRestoreEquivalence:
    """Checkpoint/resume against the uninterrupted run, fuzzed.

    The deep sweep lives in ``tests/test_snapshot.py``; this rule fuzzes
    the *graph shape* and the *snapshot cycle* together so the codec is
    exercised on whatever task-graph pathologies hypothesis invents, not
    just the paper workloads.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        params=graph_params,
        num_workers=workers,
        cut=st.integers(min_value=1, max_value=2_000),
    )
    def test_restored_runs_match_the_straight_run(
        self, params, num_workers, cut
    ):
        program = random_program(**params)
        for backend in sorted(BUILTIN_BACKENDS):
            request = SimulationRequest.for_program(
                program, backend=backend, num_workers=num_workers
            )
            straight = simulate_request(request)
            straight_events = lifecycle_events(straight)

            # Checkpoint at the drawn cycle, restore, run to the end.
            session = open_session(request)
            step = session.advance(cut)
            pre = list(step.events)
            snapshot = capture(session)
            session.close()
            restored = restore(snapshot)
            post = []
            while True:
                chunk = restored.advance(cut)
                post.extend(chunk.events)
                if chunk.finished:
                    break
            assert dataclasses.asdict(restored.result()) == dataclasses.asdict(
                straight
            ), f"{backend}: restore at cycle {cut} diverged"
            assert pre + post == straight_events

            # Checkpoint the *restored* run again at a later cycle; the
            # second-generation restore must still match field-for-field.
            second = restore(snapshot)
            mid = list(second.advance(cut).events)
            resnap = capture(second)
            second.close()
            if resnap.kind == KIND_MID_RUN:
                assert resnap.cycle >= snapshot.cycle
            third = restore(resnap)
            tail = []
            while True:
                chunk = third.advance(cut)
                tail.extend(chunk.events)
                if chunk.finished:
                    break
            assert dataclasses.asdict(third.result()) == dataclasses.asdict(
                straight
            ), f"{backend}: snapshot-of-a-restored-run diverged"
            assert pre + mid + tail == straight_events


#: A fuzzed fault plan: one timer-armed kill plus one event-level chaos
#: scenario, every knob drawn -- the seed-pinned determinism contract must
#: hold for whatever combination hypothesis invents.
fault_params = st.fixed_dictionaries(
    {
        "kill_cycle": st.integers(min_value=1, max_value=5_000),
        "kill_worker": st.integers(min_value=0, max_value=1),
        "event_kind": st.sampled_from(
            ["delay-event", "drop-event", "duplicate-event"]
        ),
        "probability": st.floats(min_value=0.05, max_value=0.5),
        "seed": st.integers(min_value=0, max_value=2**16),
        "fires": st.integers(min_value=1, max_value=4),
        "delay": st.integers(min_value=1, max_value=300),
        "jitter": st.integers(min_value=0, max_value=60),
    }
)

#: Backends with an injection layer (the perfect backend rejects faults).
FAULTED_BACKENDS = ("hil-full", "hil-hw", "nanos")


def _fault_plan(fault):
    from repro.faults import RecoveryPolicy

    return (
        FaultScenario(
            FaultKind.KILL_WORKER,
            FaultTrigger(at_cycle=fault["kill_cycle"]),
            FaultTarget(worker_id=fault["kill_worker"]),
        ),
        FaultScenario(
            FaultKind(fault["event_kind"]),
            FaultTrigger(
                probability=fault["probability"],
                seed=fault["seed"],
                max_fires=fault["fires"],
            ),
            FaultTarget(packet_class="ready"),
            RecoveryPolicy(
                delay_cycles=fault["delay"], jitter_cycles=fault["jitter"]
            ),
        ),
    )


class TestFaultedDeterminism:
    """Seed-pinned replay of faulted runs, fuzzed over graphs and plans."""

    @settings(max_examples=8, deadline=None)
    @given(params=graph_params, fault=fault_params)
    def test_same_seed_and_plan_is_identical_on_both_datapaths(
        self, params, fault
    ):
        """Same seed + same fault plan => field-for-field identical results,
        and (for HIL) identical across the flat and reference datapaths."""
        program = random_program(**params)
        faults = _fault_plan(fault)
        num_workers = 3  # >= kill_worker + 2, so nanos keeps a killable pool
        for backend in FAULTED_BACKENDS:
            request = SimulationRequest.for_program(
                program, backend=backend, num_workers=num_workers, faults=faults
            )
            first = simulate_request(request)
            second = simulate_request(request)
            assert dataclasses.asdict(first) == dataclasses.asdict(second), (
                f"{backend}: faulted replay diverged"
            )
            assert first.completed_all()
            if backend.startswith("hil"):
                reference = simulate_request(
                    SimulationRequest.for_program(
                        program,
                        backend=backend,
                        num_workers=num_workers,
                        faults=faults,
                        config=PicosConfig(reference_datapath=True),
                    )
                )
                assert dataclasses.asdict(reference) == dataclasses.asdict(
                    first
                ), f"{backend}: faulted datapaths diverged"

    @settings(max_examples=6, deadline=None)
    @given(
        params=graph_params,
        fault=fault_params,
        cut=st.integers(min_value=1, max_value=2_000),
    )
    def test_checkpoint_mid_fault_equals_straight_faulted_run(
        self, params, fault, cut
    ):
        """Snapshotting between fault injection and recovery (RNG streams,
        armed-fault state, pending fault timers all mid-flight) and
        restoring must replay exactly the straight faulted run -- including
        the streamed FaultInjected/FaultRecovered events."""
        program = random_program(**params)
        faults = _fault_plan(fault)
        for backend in FAULTED_BACKENDS:
            request = SimulationRequest.for_program(
                program, backend=backend, num_workers=3, faults=faults
            )
            straight_events = []
            with open_session(request) as session:
                while True:
                    chunk = session.advance(cut)
                    straight_events.extend(chunk.events)
                    if chunk.finished:
                        break
                straight = session.result()

            session = open_session(request)
            pre = list(session.advance(cut).events)
            snapshot = capture(session)
            session.close()
            restored = restore(snapshot)
            post = []
            while True:
                chunk = restored.advance(cut)
                post.extend(chunk.events)
                if chunk.finished:
                    break
            assert dataclasses.asdict(restored.result()) == dataclasses.asdict(
                straight
            ), f"{backend}: restore at cycle {cut} diverged under faults"
            assert pre + post == straight_events, (
                f"{backend}: faulted event stream diverged across the "
                f"checkpoint at cycle {cut}"
            )


class TestCacheKeyStability:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_workers=workers,
        backend=st.sampled_from(sorted(BUILTIN_BACKENDS)),
    )
    def test_cache_keys_are_stable_across_processes(
        self, seed, num_workers, backend
    ):
        """A cache key minted here equals one minted in a fresh interpreter.

        This is what makes the on-disk experiment cache shareable: any
        process-local state (hash randomisation, id()s, dict order) leaking
        into the key would make caches unreadable across runs.
        """
        script = (
            "from repro.sim.request import SimulationRequest\n"
            "from repro.traces.synthetic import random_program\n"
            f"program = random_program({seed}, num_tasks=10)\n"
            "request = SimulationRequest.for_program(\n"
            f"    program, backend={backend!r}, num_workers={num_workers}\n"
            ")\n"
            "print(request.cache_key(), end='')\n"
        )
        local_request = SimulationRequest.for_program(
            random_program(seed, num_tasks=10),
            backend=backend,
            num_workers=num_workers,
        )
        # The fresh interpreter must find the package however this test
        # process did (installed, or via pytest's src/ pythonpath entry) --
        # prepend this process's import root so the test is hermetic.
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (package_root, env.get("PYTHONPATH", ""))
            if part
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert fresh.stdout == local_request.cache_key()


# ----------------------------------------------------------------------
# engine differential: calendar queue vs binary-heap reference
# ----------------------------------------------------------------------
#: One fuzzed queue interaction: schedule a batch, then drain some events.
queue_ops = st.lists(
    st.tuples(
        st.lists(  # events to schedule: (delay, kind)
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=6,
        ),
        st.sampled_from(["pop", "pop2", "same-a", "same-now", "peek", "iter3"]),
    ),
    max_size=40,
)


def _drive(queue, ops):
    """Apply a fuzzed op sequence; returns the observable delivery trace."""
    trace = []
    payload = 0
    for schedules, action in ops:
        for delay, kind in schedules:
            queue.schedule(queue.now + delay, kind, payload)
            payload += 1
        if action == "peek":
            trace.append(("peek", queue.peek_time))
        elif action == "same-a":
            # Head test for a kind at the head's own time: exercises
            # pop_same_kind against interleaved kinds.
            time = queue.peek_time
            if time is not None:
                event = queue.pop_same_kind("a", time)
                trace.append(
                    ("same", None if event is None else (event.time, event.kind, event.payload))
                )
        elif action == "same-now":
            # Miss path: asking at the current clock while the head may be
            # later must not disturb ordering (the calendar queue once
            # detached buckets on this peek -- the regression the suite
            # guards).
            event = queue.pop_same_kind("b", queue.now)
            trace.append(
                ("same-now", None if event is None else (event.time, event.kind, event.payload))
            )
        elif action == "iter3":
            horizon = queue.now + 10
            for event in queue.iter_until(horizon):
                trace.append(("iter", event.time, event.kind, event.payload))
        else:
            count = 2 if action == "pop2" else 1
            for _ in range(count):
                event = queue.pop()
                trace.append(
                    ("pop", None if event is None else (event.time, event.kind, event.payload))
                )
        trace.append(("state", queue.now, queue.pending, queue.processed))
    for event in queue:
        trace.append(("drain", event.time, event.kind, event.payload))
    trace.append(("final", queue.now, queue.pending, queue.processed, queue.empty))
    return trace


class TestCalendarQueueMatchesHeapReference:
    @settings(max_examples=200, deadline=None)
    @given(ops=queue_ops)
    def test_identical_delivery_under_fuzzed_interleavings(self, ops):
        assert _drive(EventQueue(), ops) == _drive(HeapEventQueue(), ops)


# ----------------------------------------------------------------------
# datapath differential: flat integer-handle core vs object reference
# ----------------------------------------------------------------------
#: 512 KiB stride direct-hash aliases every address into DM set 0 of the
#: WAY8 paper prototype: a 12-address pool over 8 ways keeps fuzzed graphs
#: hitting the conflict -> recycle -> re-allocate sequence.
_ALIAS_STRIDE = 512 * 1024

#: One fuzzed task: up to four (address-pool index, direction) dependences.
conflict_specs = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.sampled_from(["in", "out", "inout"]),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=24,
)


def _aliasing_program(spec, durations):
    """A program whose dependences all fall into one DM set."""
    deps_per_task = []
    for deps in spec:
        # The Gateway treats each dependence of a task as a distinct
        # pragma argument; keep one access per address per task.
        seen = {}
        for pool_index, direction in deps:
            seen.setdefault(0x4000_0000 + pool_index * _ALIAS_STRIDE, direction)
        deps_per_task.append(list(seen.items()))
    return make_program(deps_per_task, durations=durations, name="dm-alias-fuzz")


def _run_both_datapaths(program, config, mode, num_workers):
    results = []
    for reference in (False, True):
        run_config = dataclasses.replace(config, reference_datapath=reference)
        results.append(
            HILSimulator(
                program, config=run_config, mode=mode, num_workers=num_workers
            ).run()
        )
    return results


class TestFlatVsReferenceDatapath:
    """The flat integer-handle datapath against the object-based oracle.

    Full-result identity (``dataclasses.asdict``) covers every per-task
    timeline stamp, the makespan, and all hardware counters -- DM/VM/TM
    watermarks, conflict and packet counts -- so a single drifted branch
    in the flat rewrite fails loudly.
    """

    @settings(max_examples=15, deadline=None)
    @given(params=graph_params, num_workers=workers)
    def test_random_graphs_are_cycle_identical(self, params, num_workers):
        program = random_program(**params)
        config = PicosConfig()
        for mode in HILMode:
            flat, reference = _run_both_datapaths(
                program, config, mode, num_workers
            )
            assert dataclasses.asdict(flat) == dataclasses.asdict(reference)

    @settings(max_examples=15, deadline=None)
    @given(
        spec=conflict_specs,
        durations=st.lists(st.integers(min_value=1, max_value=120), max_size=24),
        num_workers=workers,
    )
    def test_dm_conflict_recycle_reallocate_is_cycle_identical(
        self, spec, durations, num_workers
    ):
        """Set-aliasing streams: conflicts, stalls, recycles, re-allocations."""
        program = _aliasing_program(spec, durations)
        config = PicosConfig.paper_prototype(DMDesign.WAY8)
        for mode in (HILMode.HW_ONLY, HILMode.FULL_SYSTEM):
            flat, reference = _run_both_datapaths(
                program, config, mode, num_workers
            )
            assert dataclasses.asdict(flat) == dataclasses.asdict(reference)

    def test_conflict_pressure_reaches_the_conflict_path(self):
        """The aliasing generator really exercises DM conflicts."""
        spec = [[(i, "out")] for i in range(12)]
        program = _aliasing_program(spec, [50] * 12)
        config = PicosConfig.paper_prototype(DMDesign.WAY8)
        flat, reference = _run_both_datapaths(
            program, config, HILMode.HW_ONLY, 4
        )
        assert flat.counters["dm_conflicts"] >= 1
        assert dataclasses.asdict(flat) == dataclasses.asdict(reference)
