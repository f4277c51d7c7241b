"""Cross-backend differential fuzz suite.

Hypothesis generates seeds/shapes for :func:`repro.traces.synthetic.
random_program` and every generated task graph is run through all five
backends.  Four families of invariants pin the whole stack:

* **roofline bound** -- the analytic lower bound ``max(critical path,
  ceil(total work / workers))`` holds for every backend's makespan.  The
  perfect backend -- the zero-overhead Nanos++ schedule -- anchors the
  bound family (it hits the bound on one worker); its makespan is **not**
  asserted to lower-bound the other backends directly because greedy list
  scheduling is subject to Graham scheduling anomalies (a backend that
  pays overhead can still beat the greedy order on adversarial graphs --
  ``hil-full`` Picos finishes 0.37 % before it on Fig. 11's cholesky/256
  at two workers);
* **labels only** -- renaming the tasks to sparse, shuffled ids moves no
  stamp on any backend: the simulators index tasks by creation order;
* **session parity** -- streaming a program through the ``Session`` API is
  cycle-identical to the batch path, for every backend;
* **cache-key stability** -- request cache keys are reproducible across
  *processes* (they seed the on-disk experiment cache, so any process-local
  state leaking into them would poison shared caches);
* **engine ordering** -- the calendar-queue :class:`EventQueue` delivers
  random schedules through ``dispatch``, the loop the simulators run,
  exactly as a list-and-``min`` model of the ordering contract does, with
  handlers that schedule follow-ups, horizons and schedules between the
  calls;
* **snapshot determinism** -- checkpointing a session at a fuzz-drawn
  cycle and restoring it (and checkpointing the *restored* run again at a
  later drawn cycle) yields results field-for-field identical to the
  uninterrupted run, for every backend;
* **faulted determinism** -- a fuzz-drawn fault plan (worker kill + seeded
  event-level chaos) replays field-for-field identically from the same
  seeds, and a checkpoint taken mid-fault restores into exactly the
  straight faulted run;
* **DM-conflict pressure** -- graphs whose addresses all alias into one
  DM set drive the HIL datapath through conflict -> recycle ->
  re-allocate; no task starts before a predecessor finishes, and a
  checkpoint at a drawn cycle restores field-for-field.

Run deterministically with ``pytest tests/test_differential.py
--hypothesis-seed=0`` (the CI job does exactly that).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import os
import random
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
from repro.runtime.dependence_analysis import task_graph
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.engine import EventQueue
from repro.sim.hil import HILMode
from repro.sim.request import SimulationRequest
from repro.sim.session import lifecycle_events, open_session
from repro.sim.snapshot import KIND_MID_RUN, capture, restore
from repro.traces.synthetic import random_program

from tests.helpers import (
    make_program,
    makespan_lower_bound,
    queued,
    recording_handlers,
    relabelled,
)

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


class TestCrossBackendInvariants:
    @settings(max_examples=25, deadline=None)
    @given(params=graph_params, num_workers=workers)
    def test_roofline_bound_holds_for_every_backend(self, params, num_workers):
        program = random_program(**params)
        bound = makespan_lower_bound(program, num_workers)
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

    @settings(max_examples=10, deadline=None)
    @given(
        params=graph_params,
        num_workers=workers,
        relabel_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_task_ids_are_labels_only(self, params, num_workers, relabel_seed):
        """Renaming the tasks to sparse, shuffled ids changes no stamp."""
        program = random_program(**params)
        task_ids = random.Random(relabel_seed).sample(
            range(10 * program.num_tasks + 10), program.num_tasks
        )
        renamed = relabelled(program, task_ids)
        for backend in sorted(BUILTIN_BACKENDS):
            dense, result = (
                simulate_request(
                    SimulationRequest.for_program(
                        p, backend=backend, num_workers=num_workers
                    )
                )
                for p in (program, renamed)
            )
            assert result.makespan == dense.makespan
            assert result.counters == dense.counters
            assert [result.timelines[t]._astuple()[1:] for t in task_ids] == [
                dense.timelines[row]._astuple()[1:] for row in range(program.num_tasks)
            ]


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
    def test_same_seed_and_plan_is_identical(self, params, fault):
        """Same seed + same fault plan => field-for-field identical results."""
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
# engine differential: calendar queue vs the ordering contract's model
# ----------------------------------------------------------------------
class ModelQueue:
    """The ordering contract as a list and ``min``: the next delivery is
    the pending event with the least (time, scheduling index), provided it
    is stamped at or before the horizon."""

    def __init__(self):
        self.events = []  # pending (time, scheduling index, kind, payload)
        self.scheduled = self.now = self.processed = 0

    @property
    def empty(self):
        return not self.events

    @property
    def peek_time(self):
        return min(self.events)[0] if self.events else None

    def schedule(self, time, kind, payload=None):
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before {self.now}")
        self.events.append((time, self.scheduled, kind, payload))
        self.scheduled += 1

    def dispatch(self, handlers, horizon=None):
        while self.events and (horizon is None or min(self.events)[0] <= horizon):
            event = min(self.events)
            self.events.remove(event)
            self.now, _, kind, payload = event
            self.processed += 1
            handlers[kind](payload, self.now)

    def snapshot_events(self):
        by_time = itertools.groupby(sorted(self.events), key=operator.itemgetter(0))
        return [], [(time, [event[2:] for event in group]) for time, group in by_time]


#: One fuzzed ``dispatch`` run: the events scheduled up front; the
#: follow-ups each delivery schedules in turn (delay 0 is the current
#: cycle); and the bounded calls, each a step past the previous horizon
#: and the events scheduled once it returns, relative to the clock (so
#: they may land before the next queued bucket).
_kinds = st.sampled_from("abc")
dispatch_runs = st.tuples(
    st.lists(st.tuples(st.integers(min_value=0, max_value=30), _kinds), max_size=8),
    st.lists(
        st.lists(st.tuples(st.integers(min_value=0, max_value=10), _kinds), max_size=3),
        max_size=40,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.lists(st.tuples(st.integers(min_value=0, max_value=12), _kinds), max_size=3),
        ),
        max_size=6,
    ),
)


def _dispatch(queue, run):
    """Drive ``queue.dispatch`` through horizons, then a drain; returns the
    deliveries and what the queue reads (clock, count, ``empty``, peek and
    pending schedule) at every delivery and after every call."""
    seeds, follow_ups, calls = run
    seen = []
    scheduled = itertools.count()  # payloads: the scheduling order
    replies = iter(follow_ups)
    for delay, kind in seeds:
        queue.schedule(delay, kind, next(scheduled))

    def state():
        return (queue.now, queue.processed, queue.empty, queue.peek_time, queued(queue))

    def then(kind, payload, time):
        seen.append(state())
        for delay, follow in next(replies, ()):
            queue.schedule(time + delay, follow, next(scheduled))

    handlers, delivered = recording_handlers("abc", then)
    horizon = 0
    for step, between in calls:
        horizon += step
        queue.dispatch(handlers, horizon)
        seen.append(("stop", horizon) + state())
        for delay, kind in between:
            queue.schedule(queue.now + delay, kind, next(scheduled))
    queue.dispatch(handlers)
    seen.append(("drained",) + state())
    return delivered, seen


class TestCalendarQueueMatchesModel:
    @settings(max_examples=300, deadline=None)
    @given(run=dispatch_runs)
    def test_dispatch_delivers_in_the_model_order(self, run):
        # The simulators' production loop: handlers schedule follow-ups,
        # some at the cycle being delivered, and runs stop at horizons
        # with more events scheduled between the calls.
        assert _dispatch(EventQueue(), run) == _dispatch(ModelQueue(), run)


# ----------------------------------------------------------------------
# the datapath under DM-conflict pressure
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


def _aliasing_request(program, mode, num_workers):
    return SimulationRequest.for_program(
        program,
        backend=mode.backend_name,
        num_workers=num_workers,
        config=PicosConfig.paper_prototype(DMDesign.WAY8),
    )


class TestDmConflictPressure:
    """Set-aliasing streams: conflicts, stalls, recycles, re-allocations.

    Every dependence lands in one DM set, so the DCT keeps stalling on a
    full set, recycling the ways of retired addresses and re-allocating
    them to new tags.  The run must still honour every dependence, and a
    checkpoint taken anywhere in it must restore field-for-field.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        spec=conflict_specs,
        durations=st.lists(st.integers(min_value=1, max_value=120), max_size=24),
        num_workers=workers,
    )
    def test_dm_conflict_recycle_reallocate_keeps_dependence_order(
        self, spec, durations, num_workers
    ):
        program = _aliasing_program(spec, durations)
        edges = task_graph(program).edges()
        for mode in (HILMode.HW_ONLY, HILMode.FULL_SYSTEM):
            result = simulate_request(_aliasing_request(program, mode, num_workers))
            assert result.completed_all()
            assert result.makespan >= makespan_lower_bound(program, num_workers)
            timelines = result.timelines
            for src, dst in edges:
                assert timelines[dst].started >= timelines[src].finished, (
                    f"{mode.backend_name}: task {dst} started before task {src} finished"
                )

    @settings(max_examples=10, deadline=None)
    @given(
        spec=conflict_specs,
        durations=st.lists(st.integers(min_value=1, max_value=120), max_size=24),
        num_workers=workers,
        cut=st.integers(min_value=1, max_value=2_000),
    )
    def test_dm_conflict_recycle_reallocate_restores_bit_exact(
        self, spec, durations, num_workers, cut
    ):
        program = _aliasing_program(spec, durations)
        for mode in (HILMode.HW_ONLY, HILMode.FULL_SYSTEM):
            request = _aliasing_request(program, mode, num_workers)
            straight = simulate_request(request)
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
            ), f"{mode.backend_name}: restore at cycle {cut} diverged"
            assert pre + post == lifecycle_events(straight)

    def test_conflict_pressure_reaches_the_conflict_path(self):
        """The aliasing generator really exercises DM conflicts."""
        spec = [[(i, "out")] for i in range(12)]
        program = _aliasing_program(spec, [50] * 12)
        result = simulate_request(_aliasing_request(program, HILMode.HW_ONLY, 4))
        assert result.counters["dm_conflicts"] >= 1
        assert result.completed_all()
