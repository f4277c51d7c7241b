"""Runtime state of armed fault scenarios: the :class:`FaultPlan`.

A plan binds a tuple of frozen :class:`~repro.faults.scenario.
FaultScenario` descriptions to one concrete simulator run.  The
simulator constructs the plan only when at least one scenario is armed;
unfaulted runs never touch this module, which is what keeps the
injection layer cycle-neutral and zero-cost when off.

The plan hooks the run in two places:

* ``wrap(handlers)`` -- the simulator's dispatch table is wrapped via
  :func:`repro.sim.engine.intercept_handlers` so every delivery flows
  through :meth:`FaultPlan.deliver`, and the plan registers handlers for
  its two private event kinds (``FAULT_TIMER`` / ``FAULT_REDELIVER``).
* ``arm(now)`` -- called once from the simulator's prepare step; each
  scenario's injector gets an ``on_arm`` callback (kill scenarios
  schedule their timers here).

Backend specifics (packet-class names, payload shapes, how to kill and
replace a worker) live in a small *adapter* object defined next to each
simulator (``sim/hil.py`` / ``runtime/nanos.py``).  The adapter is duck
typed; the protocol is:

``family``
    Short backend family name used in messages (``"hil"`` / ``"nanos"``).
``packet_classes``
    Mapping of backend-independent class name -> engine event kind.
``default_packet_class``
    Class used when a scenario leaves ``target.packet_class`` unset.
``completion_kind``
    The engine kind that retires tasks (drives the online monotone-
    retirement check and the kill-worker bookkeeping).
``task_id_of(kind, payload)``
    Best-effort task id of a payload (``-1`` when unknown).
``worker_count(sim)``
    Number of killable workers (validates ``target.worker_id``).
``kill_worker(sim, plan, armed, now)`` / ``rejoin_worker(...)``
    The backend-specific kill / replacement actions.
``intercept_completion(sim, plan, armed, payload, now)``
    Pre-delivery hook of one kill scenario; returns ``True`` to consume
    the event (HIL discards a stale completion of a killed worker; Nanos
    retires the watched thread's final completion without letting the
    dying thread rejoin the pool).
``stall_counters(sim)``
    Mapping of stall counters for the bounded-stall invariant.

Determinism contract: the only randomness is each scenario's private
``random.Random(trigger.seed)`` stream, and every plan decision happens
at a deterministic point of the event-dispatch order -- so one seed
tuple pins the entire faulted schedule, and ``snapshot_state()`` /
``restore_state()`` (RNG state included) make mid-fault checkpoints
replay bit-exactly.  See ``docs/faults.md``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.faults.payloads import (
    FAULT_REDELIVER,
    FAULT_TIMER,
    FaultRedeliver,
    FaultTimer,
    TIMER_KILL,
    TIMER_REJOIN,
)
from repro.faults.scenario import (
    FaultConfigurationError,
    FaultKind,
    FaultScenario,
)

#: Lifecycle-log order codes of the fault events.  They extend the
#: task-lifecycle codes 0/1/2 (submitted/ready/retired) used by
#: ``sim/session.py`` -- keep ``_EVENT_ORDER`` there in lockstep.
LOG_FAULT_INJECTED = 3
LOG_FAULT_RECOVERED = 4


class FaultInvariantError(RuntimeError):
    """A faulted run violated one of its declared invariants."""


class ArmedFault:
    """Mutable per-run state of one scenario (the scenario itself is frozen)."""

    __slots__ = (
        "scenario",
        "index",
        "match_kind",
        "freeze_window",
        "fires",
        "injected",
        "recovered",
        "rng",
        "killed",
        "awaiting",
        "watching",
    )

    def __init__(self, scenario: FaultScenario, index: int) -> None:
        self.scenario = scenario
        self.index = index
        #: Engine event kind this scenario matches (event-level + freeze).
        self.match_kind: Optional[str] = None
        #: Resolved [start, end) freeze window (freeze-bank only).
        self.freeze_window: Optional[Tuple[int, int]] = None
        self.fires = 0
        self.injected = 0
        self.recovered = 0
        self.rng = random.Random(scenario.trigger.seed)
        #: Stale ``(worker, task)`` completions to discard (HIL kill).
        self.killed: Set[Tuple[int, int]] = set()
        #: Tasks re-dispatched after a kill, awaiting re-completion (HIL).
        self.awaiting: Set[int] = set()
        #: Worker being watched for its final completion (Nanos kill).
        self.watching: Optional[int] = None


class FaultPlan:
    """All armed scenarios of one simulator run, plus their bookkeeping."""

    def __init__(
        self,
        scenarios: Tuple[FaultScenario, ...],
        adapter: Any,
        sim: Any,
    ) -> None:
        from repro.faults.injectors import INJECTORS
        from repro.faults.invariants import INVARIANT_CHECKERS

        self.adapter = adapter
        self._sim = sim
        self._injectors = INJECTORS
        self._checkers = INVARIANT_CHECKERS
        self.armed = False
        self.injected = 0
        self.recovered = 0
        self._last_completion = -1
        self._base: Dict[str, Callable[[Any, int], None]] = {}
        self.armed_faults: List[ArmedFault] = []
        #: Event-level / freeze scenarios indexed by matched engine kind.
        self._watch: Dict[str, List[ArmedFault]] = {}
        #: Kill scenarios (ordered), consulted on every completion.
        self._kills: List[ArmedFault] = []
        for index, scenario in enumerate(scenarios):
            if scenario.kind not in self._injectors:
                raise FaultConfigurationError(
                    f"no injector registered for {scenario.kind.value}"
                )
            armed = ArmedFault(scenario, index)
            self._resolve(armed)
            self.armed_faults.append(armed)

    # ------------------------------------------------------------------
    # construction-time resolution / validation
    # ------------------------------------------------------------------
    def _resolve(self, armed: ArmedFault) -> None:
        scenario = armed.scenario
        adapter = self.adapter
        if scenario.kind is FaultKind.KILL_WORKER:
            worker_id = scenario.target.worker_id
            count = adapter.worker_count(self._sim)
            assert worker_id is not None  # enforced by the scenario schema
            if worker_id >= count:
                raise FaultConfigurationError(
                    f"kill-worker target worker {worker_id} out of range: "
                    f"the {adapter.family} backend of this run has "
                    f"{count} killable workers"
                )
            self._kills.append(armed)
            return
        packet_class = scenario.target.packet_class or adapter.default_packet_class
        try:
            armed.match_kind = adapter.packet_classes[packet_class]
        except KeyError:
            known = ", ".join(sorted(adapter.packet_classes))
            raise FaultConfigurationError(
                f"unknown packet class {packet_class!r} for the "
                f"{adapter.family} backend (known: {known})"
            ) from None
        if scenario.kind is FaultKind.FREEZE_BANK:
            trigger = scenario.trigger
            if trigger.window is not None:
                armed.freeze_window = trigger.window
            else:
                start = trigger.at_cycle or 0
                length = max(1, scenario.recovery.delay_cycles)
                armed.freeze_window = (start, start + length)
        self._watch.setdefault(armed.match_kind, []).append(armed)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def arm(self, now: int = 0) -> None:
        """Give every scenario its ``on_arm`` callback (idempotent)."""
        if self.armed:
            return
        for armed in self.armed_faults:
            self._injectors[armed.scenario.kind].on_arm(self, armed, now)
        self.armed = True

    def wrap(
        self, handlers: Mapping[str, Callable[[Any, int], None]]
    ) -> Dict[str, Callable[[Any, int], None]]:
        """Return ``handlers`` with every delivery routed through the plan."""
        from repro.sim.engine import intercept_handlers

        self._base = dict(handlers)
        wrapped = intercept_handlers(handlers, self.deliver)
        wrapped[FAULT_TIMER] = self._on_timer
        wrapped[FAULT_REDELIVER] = self._on_redeliver
        return wrapped

    # ------------------------------------------------------------------
    # delivery path
    # ------------------------------------------------------------------
    def deliver(
        self,
        kind: str,
        payload: Any,
        now: int,
        handler: Callable[[Any, int], None],
        redelivery: bool = False,
    ) -> None:
        """Route one event delivery through the armed scenarios."""
        adapter = self.adapter
        if kind == adapter.completion_kind:
            for armed in self._kills:
                if adapter.intercept_completion(self._sim, self, armed, payload, now):
                    return  # stale completion of a killed worker
            if now < self._last_completion:
                raise FaultInvariantError(
                    f"retirement went backwards: cycle {now} after "
                    f"{self._last_completion}"
                )
            self._last_completion = now
        if not redelivery:
            for armed in self._watch.get(kind, ()):
                injector = self._injectors[armed.scenario.kind]
                if injector.on_delivery(self, armed, kind, payload, now):
                    return  # delivery swallowed (delayed / dropped / frozen)
        handler(payload, now)

    def _on_timer(self, payload: FaultTimer, now: int) -> None:
        armed = self.armed_faults[payload.index]
        if payload.tag == TIMER_KILL:
            self.adapter.kill_worker(self._sim, self, armed, now)
        elif payload.tag == TIMER_REJOIN:
            self.adapter.rejoin_worker(self._sim, self, armed, payload.arg, now)
        else:  # pragma: no cover - the plan only schedules known tags
            raise RuntimeError(f"unknown fault timer tag: {payload.tag!r}")

    def _on_redeliver(self, payload: FaultRedeliver, now: int) -> None:
        armed = self.armed_faults[payload.index]
        kind, original = payload.kind, payload.payload
        self.record_recovered(now, self.adapter.task_id_of(kind, original), armed)
        if armed.scenario.kind is FaultKind.DUPLICATE_EVENT:
            return  # the receiver deduplicates the echo
        handler = self._base[kind]
        # A retransmitted (dropped) packet travels the lossy path again
        # and may be re-dropped while fires remain; delayed and thawed
        # deliveries are final.  Either way the kill bookkeeping still
        # applies (a late completion of a killed worker must be stale).
        re_matchable = armed.scenario.kind is FaultKind.DROP_EVENT
        self.deliver(kind, original, now, handler, redelivery=not re_matchable)

    # ------------------------------------------------------------------
    # injector services
    # ------------------------------------------------------------------
    def trigger_fires(self, armed: ArmedFault, now: int) -> bool:
        """Evaluate the scenario trigger for one matching occasion."""
        trigger = armed.scenario.trigger
        if trigger.max_fires is not None and armed.fires >= trigger.max_fires:
            return False
        if trigger.probability is not None:
            if armed.rng.random() >= trigger.probability:
                return False
        elif trigger.at_cycle is not None:
            if now < trigger.at_cycle:
                return False
        else:
            assert trigger.window is not None
            start, end = trigger.window
            if not start <= now < end:
                return False
        armed.fires += 1
        return True

    def recovery_delay(self, armed: ArmedFault) -> int:
        """Recovery delay of one injection, jitter included."""
        recovery = armed.scenario.recovery
        delay = recovery.delay_cycles
        if recovery.jitter_cycles:
            delay += armed.rng.randrange(recovery.jitter_cycles + 1)
        return delay

    def schedule_timer(
        self, armed: ArmedFault, at: int, tag: str, arg: Optional[int] = None
    ) -> None:
        self._sim.queue.schedule(at, FAULT_TIMER, FaultTimer(armed.index, tag, arg))

    def schedule_redelivery(
        self, armed: ArmedFault, kind: str, payload: Any, at: int
    ) -> None:
        self._sim.queue.schedule(
            at, FAULT_REDELIVER, FaultRedeliver(armed.index, kind, payload)
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def record_injected(self, now: int, task_id: int, armed: ArmedFault) -> None:
        self.injected += 1
        armed.injected += 1
        log = getattr(self._sim, "_lifecycle_log", None)
        if log is not None:
            log.append((now, LOG_FAULT_INJECTED, task_id))

    def record_recovered(self, now: int, task_id: int, armed: ArmedFault) -> None:
        self.recovered += 1
        armed.recovered += 1
        log = getattr(self._sim, "_lifecycle_log", None)
        if log is not None:
            log.append((now, LOG_FAULT_RECOVERED, task_id))

    # ------------------------------------------------------------------
    # end-of-run invariants
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Raise :class:`FaultInvariantError` unless the run is healthy."""
        from repro.faults.invariants import verify_run

        verify_run(self, self._sim)
        for armed in self.armed_faults:
            self._checkers[armed.scenario.kind](self, armed, self._sim)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-safe armed-fault state (RNG streams included)."""
        scenarios = []
        for armed in self.armed_faults:
            version, internal, gauss = armed.rng.getstate()
            scenarios.append(
                {
                    "fires": armed.fires,
                    "injected": armed.injected,
                    "recovered": armed.recovered,
                    "rng": [version, list(internal), gauss],
                    "killed": sorted(list(pair) for pair in armed.killed),
                    "awaiting": sorted(armed.awaiting),
                    "watching": armed.watching,
                }
            )
        return {
            "armed": self.armed,
            "injected": self.injected,
            "recovered": self.recovered,
            "last_completion": self._last_completion,
            "scenarios": scenarios,
        }

    def restore_state(self, document: Mapping[str, Any]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        scenarios = document["scenarios"]
        if len(scenarios) != len(self.armed_faults):
            raise ValueError(
                f"snapshot carries {len(scenarios)} armed faults, "
                f"the request arms {len(self.armed_faults)}"
            )
        self.armed = bool(document["armed"])
        self.injected = int(document["injected"])
        self.recovered = int(document["recovered"])
        self._last_completion = int(document["last_completion"])
        for armed, state in zip(self.armed_faults, scenarios):
            armed.fires = int(state["fires"])
            armed.injected = int(state["injected"])
            armed.recovered = int(state["recovered"])
            version, internal, gauss = state["rng"]
            armed.rng.setstate((version, tuple(internal), gauss))
            armed.killed = {(pair[0], pair[1]) for pair in state["killed"]}
            armed.awaiting = set(state["awaiting"])
            armed.watching = state["watching"]


__all__ = [
    "ArmedFault",
    "FaultInvariantError",
    "FaultPlan",
    "LOG_FAULT_INJECTED",
    "LOG_FAULT_RECOVERED",
]
