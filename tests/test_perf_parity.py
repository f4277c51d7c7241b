"""Cycle-identity of the optimized simulation core.

The engine/hot-path optimizations (``__slots__`` events, handler-table
dispatch, memoized DM indexing) must not move a single cycle.  Two
independent nets pin that down:

* **golden digests** -- every backend's full result (makespan, drain time
  and all per-task timelines) is digested and compared against values
  recorded from the pre-optimization engine, so any behavioural drift in
  the optimized code fails loudly.  This is the check the CI bench job
  replays;
* **delivery-path parity** -- the HIL and Nanos++ simulators each have one
  event-delivery loop, and a run drives it straight, in
  :class:`~repro.sim.session.EngineStepper` slices, through an armed but
  dormant fault plan, or from a restored mid-run snapshot; all four must
  produce field-for-field identical results, on a paper workload and on
  every capacity corner of ``tests.helpers.SATURATION_CASES``.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.hashing import index_for, make_index_function, stable_digest
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.request import SimulationRequest, build_workload

from tests.helpers import (
    SATURATION_CASE_NAMES,
    SATURATION_CASES,
    assert_delivery_paths_agree,
    makespan_lower_bound,
    run_delivery_paths,
)


def result_digest(result) -> str:
    """Stable digest of everything cycle-related in a simulation result."""
    parts = [
        result.simulator,
        result.num_workers,
        result.makespan,
        result.drain_time,
        result.num_tasks,
        result.sequential_cycles,
    ]
    for task_id in sorted(result.timelines):
        t = result.timelines[task_id]
        parts.append(
            (t.task_id, t.created, t.submitted, t.ready, t.started, t.finished)
        )
    return stable_digest(*parts)


#: (workload, block_size, problem_size, backend, num_workers) ->
#: (makespan, digest).  The case3/cholesky/sparselu rows were recorded from
#: the engine as of PR 2 (commit 60e6fea), before any hot-path
#: optimization; the h264dec/heat rows were recorded from the PR-3 engine
#: (commit b5ae8bc), before the calendar-queue and batched Gateway->DCT
#: dispatch work, so that change cannot silently drift either.  The
#: cholesky, h264dec and heat ``perfect`` rows were re-recorded when
#: ``perfect`` became the zero-overhead Nanos++ schedule (version 1.3.0).
GOLDEN = {
    ("case3", None, None, "hil-comm", 1): (74736, "c4c81164e2d9072ab62ef088"),
    ("case3", None, None, "hil-comm", 4): (74798, "cab14620219a88387ca7bb9c"),
    ("case3", None, None, "hil-full", 1): (341235, "5723313a93d36f6b5823dd53"),
    ("case3", None, None, "hil-full", 4): (341545, "8e1b650d3546c7c8e483db21"),
    ("case3", None, None, "hil-hw", 1): (25200, "6272f2d9d329a22a411d891f"),
    ("case3", None, None, "hil-hw", 4): (25200, "a27ada696659f89db0952892"),
    ("case3", None, None, "nanos", 1): (3181100, "c4da7d611c27e3252009d71b"),
    ("case3", None, None, "nanos", 4): (3701117, "f20a64bed8b20bc74c465051"),
    ("case3", None, None, "perfect", 1): (100, "3480ac05a1b7214ca1a2617c"),
    ("case3", None, None, "perfect", 4): (25, "a838124dd0a7e97c92b77e1d"),
    ("h264dec", 8, None, "hil-comm", 1): (4636113171, "37815049811cbbbdad4e38fb"),
    ("h264dec", 8, None, "hil-comm", 4): (1170777717, "7731fe7fe5d7bd27af63f6f1"),
    ("h264dec", 8, None, "hil-full", 1): (4636117961, "34d64c9af674085d50c186d2"),
    ("h264dec", 8, None, "hil-full", 4): (1170782507, "bbc2a8568126ea60cbf6a990"),
    ("h264dec", 8, None, "hil-hw", 1): (4635000617, "911fbcb64ddbf0068d062976"),
    ("h264dec", 8, None, "hil-hw", 4): (1170082939, "66529f0b5460baa08900e76d"),
    ("h264dec", 8, None, "nanos", 1): (4668333000, "f728865bf0e48fdca25b7b1b"),
    ("h264dec", 8, None, "nanos", 4): (1176705363, "060724c248f9c38753e09b9c"),
    ("h264dec", 8, None, "perfect", 1): (4635000000, "d4e5bd667b8ace8c11ea9bfc"),
    ("h264dec", 8, None, "perfect", 4): (1163900000, "b162c70500f3c19f7672de8a"),
    ("heat", 256, None, "hil-comm", 1): (224672915, "02d91c95fd12034f821ced1b"),
    ("heat", 256, None, "hil-comm", 4): (66711800, "46e06c6b058a8f4f6b892106"),
    ("heat", 256, None, "hil-full", 1): (224677785, "0be102f114c26f7143e34784"),
    ("heat", 256, None, "hil-full", 4): (66716670, "9688f1282d779d0e701a16d8"),
    ("heat", 256, None, "hil-hw", 1): (224640279, "a4b0dc0d27e9ebb2fa99fb93"),
    ("heat", 256, None, "hil-hw", 4): (66691181, "91eb6a5cfa3e4a67aeb4f20c"),
    ("heat", 256, None, "nanos", 1): (225470200, "da9b1208ac49da47db7bf26d"),
    ("heat", 256, None, "nanos", 4): (66789829, "316278e6e163a4f09caf3512"),
    ("heat", 256, None, "perfect", 1): (224640000, "e1f227e9f8b7a77c0b62dc4d"),
    ("heat", 256, None, "perfect", 4): (66690000, "c44031637a0aa765e6665b52"),
    ("cholesky", 128, 512, "hil-comm", 1): (19431389, "35b3d1c7e123992b2ea774e8"),
    ("cholesky", 128, 512, "hil-comm", 4): (8806141, "18074018760dbfdfda88cf4c"),
    ("cholesky", 128, 512, "hil-full", 1): (19436179, "dfe5f4d05c98b071eb119f16"),
    ("cholesky", 128, 512, "hil-full", 4): (8810931, "a0d43976864e96728cf6252b"),
    ("cholesky", 128, 512, "hil-hw", 1): (19420455, "254e79c74fb9826b7980fcac"),
    ("cholesky", 128, 512, "hil-hw", 4): (8800217, "81309debdc49f1b421d7c085"),
    ("cholesky", 128, 512, "nanos", 1): (19589396, "4c7b47b75be7ece727a25b56"),
    ("cholesky", 128, 512, "nanos", 4): (8223656, "95ee3cb6032a9031be29421b"),
    ("cholesky", 128, 512, "perfect", 1): (19419996, "aad9d939c2bdf28a6ab02d13"),
    ("cholesky", 128, 512, "perfect", 4): (8192811, "6b3785f33d86cbb33449073b"),
    ("sparselu", 128, 512, "hil-comm", 1): (56688106, "d0bc6c3eeec439a6e6e65d6d"),
    ("sparselu", 128, 512, "hil-comm", 4): (45093730, "4a67d4a9cd6f92106fbd6b12"),
    ("sparselu", 128, 512, "hil-full", 1): (56692896, "0c53063325aa2f8b6ee447c3"),
    ("sparselu", 128, 512, "hil-full", 4): (45098520, "87a2035b7f7b3456f64fed42"),
    ("sparselu", 128, 512, "hil-hw", 1): (56680630, "76acdf2f9bfb9e5b7df06f26"),
    ("sparselu", 128, 512, "hil-hw", 4): (45087121, "c087d41a15dceaf0f056d01e"),
    ("sparselu", 128, 512, "nanos", 1): (56788099, "c7e183be180c80a29fb26949"),
    ("sparselu", 128, 512, "nanos", 4): (45119974, "c2cc9231658562210ffa281f"),
    ("sparselu", 128, 512, "perfect", 1): (56679999, "32f2486e570b004341f670b2"),
    ("sparselu", 128, 512, "perfect", 4): (45086364, "0af3fcc9cf0410b8edb3c019"),
}


def counters_digest(result) -> str:
    """Stable digest of a result's full ``counters`` dict."""
    return stable_digest(*sorted(result.counters.items()))


#: (workload, block_size, problem_size, backend, num_workers) -> digest of
#: the golden cell's full ``counters`` dict, recorded at version 1.3.0 while
#: the datapath still kept counters that no result reads: deleting them must
#: not move a single reported counter.
GOLDEN_COUNTERS = {
    ('case3', None, None, 'hil-comm', 1): '0b758584707c9848ed68bfc8',
    ('case3', None, None, 'hil-comm', 4): 'a5658a4fe9e6a70b346e9c19',
    ('case3', None, None, 'hil-full', 1): 'b0e3b743712deedbfa3ad937',
    ('case3', None, None, 'hil-full', 4): '5f87f3c3874a8db01674f66f',
    ('case3', None, None, 'hil-hw', 1): '4c7db3e02fad97e971550678',
    ('case3', None, None, 'hil-hw', 4): '4c7db3e02fad97e971550678',
    ('case3', None, None, 'nanos', 1): '9e5e33948804a62b3384011b',
    ('case3', None, None, 'nanos', 4): 'f84aac8085256688a966c458',
    ('case3', None, None, 'perfect', 1): 'a71d0904c9365410d0d3ef5c',
    ('case3', None, None, 'perfect', 4): 'fbba0efc0614a8e5135751bb',
    ('cholesky', 128, 512, 'hil-comm', 1): '7a5acfb434c00e02b9319725',
    ('cholesky', 128, 512, 'hil-comm', 4): 'b542bb050791cb2b571b8e53',
    ('cholesky', 128, 512, 'hil-full', 1): 'cfb7504a87c479c17958dfb5',
    ('cholesky', 128, 512, 'hil-full', 4): '5fafac51d0293886542412e4',
    ('cholesky', 128, 512, 'hil-hw', 1): '19309bb7be38bde4fa3f6446',
    ('cholesky', 128, 512, 'hil-hw', 4): '80294ce5fc8602dee6b44648',
    ('cholesky', 128, 512, 'nanos', 1): 'a214cebe47c525c3623d6342',
    ('cholesky', 128, 512, 'nanos', 4): '385bc5bfc01d33ed545a1aaf',
    ('cholesky', 128, 512, 'perfect', 1): '6e57510b347eab1367e1c60a',
    ('cholesky', 128, 512, 'perfect', 4): 'd09961bf84db4c73c2d53803',
    ('h264dec', 8, None, 'hil-comm', 1): '267e5e1976d1d00aef7c9a57',
    ('h264dec', 8, None, 'hil-comm', 4): '2b0a038dfcb63a927687e545',
    ('h264dec', 8, None, 'hil-full', 1): '40f8c74b095e892d5261ac70',
    ('h264dec', 8, None, 'hil-full', 4): 'e41b6dfa3b99524120a59e45',
    ('h264dec', 8, None, 'hil-hw', 1): '41228c65fad0075537d0fbad',
    ('h264dec', 8, None, 'hil-hw', 4): 'd97193287ed2bb3d4ac56347',
    ('h264dec', 8, None, 'nanos', 1): '321df113e6b7ec39f419b02b',
    ('h264dec', 8, None, 'nanos', 4): '347620ab7a39122f3c3e86f2',
    ('h264dec', 8, None, 'perfect', 1): '119661a5652f66226cbe5739',
    ('h264dec', 8, None, 'perfect', 4): '3ec69488bad42972cde52b81',
    ('heat', 256, None, 'hil-comm', 1): '562458c039ab97b1f1fe9ad1',
    ('heat', 256, None, 'hil-comm', 4): 'b0757cf78b5a339fa91eb9bd',
    ('heat', 256, None, 'hil-full', 1): 'c503ee0779291b78ddcbc3ab',
    ('heat', 256, None, 'hil-full', 4): 'b25244393f1ab5dd4877b8a5',
    ('heat', 256, None, 'hil-hw', 1): 'eeb1e486200d54a82b2f82f3',
    ('heat', 256, None, 'hil-hw', 4): '4a06463f5e41a4375f0c4525',
    ('heat', 256, None, 'nanos', 1): 'f8ba2158aa126e7d4fc9ff74',
    ('heat', 256, None, 'nanos', 4): '020f9946e5d12efab88929e6',
    ('heat', 256, None, 'perfect', 1): '1a3bbe9aa9076982d164a42f',
    ('heat', 256, None, 'perfect', 4): 'e4aaca0faf7ccad366aa1a18',
    ('sparselu', 128, 512, 'hil-comm', 1): '111d99bb55c57f51ca3094e2',
    ('sparselu', 128, 512, 'hil-comm', 4): '9e6ef15f5b9391399cbdf973',
    ('sparselu', 128, 512, 'hil-full', 1): '16955bc406790e6da5b5de5b',
    ('sparselu', 128, 512, 'hil-full', 4): '6c24af403aff58651010ffb6',
    ('sparselu', 128, 512, 'hil-hw', 1): '40f67a7449e1ea97a92e1cc8',
    ('sparselu', 128, 512, 'hil-hw', 4): 'ad31db9f6d8a2ab988c2f7e4',
    ('sparselu', 128, 512, 'nanos', 1): '01ed19c0edb7537081481ce9',
    ('sparselu', 128, 512, 'nanos', 4): '96a77782ea2eb82442a32e8f',
    ('sparselu', 128, 512, 'perfect', 1): '46df4dbb05905527daef76ad',
    ('sparselu', 128, 512, 'perfect', 4): 'd9abdf46eeec77babe644ca1',
}


@functools.lru_cache(maxsize=None)
def golden_run(workload, block_size, problem_size, backend, workers):
    """The program and result of one golden cell, simulated once per session."""
    request = SimulationRequest.for_workload(
        workload,
        block_size=block_size,
        problem_size=problem_size,
        backend=backend,
        num_workers=workers,
    )
    return request.build_program(), simulate_request(request)


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "workload,block_size,problem_size,backend,workers",
        sorted(GOLDEN, key=repr),
    )
    def test_optimized_engine_matches_pre_optimization_results(
        self, workload, block_size, problem_size, backend, workers
    ):
        expected_makespan, expected_digest = GOLDEN[
            (workload, block_size, problem_size, backend, workers)
        ]
        _, result = golden_run(workload, block_size, problem_size, backend, workers)
        assert result.makespan == expected_makespan
        assert result_digest(result) == expected_digest

    @pytest.mark.parametrize(
        "workload,block_size,problem_size,backend,workers",
        sorted(GOLDEN, key=repr),
    )
    def test_makespan_respects_the_analytic_bound(
        self, workload, block_size, problem_size, backend, workers
    ):
        """No backend beats max(critical path, ceil(work / workers)).

        ``perfect``, the zero-overhead Nanos++ schedule, is a greedy list
        schedule, not this bound: nothing guarantees that every other
        backend finishes after it.
        """
        program, result = golden_run(workload, block_size, problem_size, backend, workers)
        assert result.makespan >= makespan_lower_bound(program, workers)

    @pytest.mark.parametrize(
        "workload,block_size,problem_size,backend,workers",
        sorted(GOLDEN, key=repr),
    )
    def test_reported_counters_match_the_recorded_digests(
        self, workload, block_size, problem_size, backend, workers
    ):
        key = (workload, block_size, problem_size, backend, workers)
        _, result = golden_run(*key)
        assert counters_digest(result) == GOLDEN_COUNTERS[key]

    def test_every_builtin_backend_has_a_golden_row(self):
        covered = {key[3] for key in GOLDEN}
        assert covered == set(BUILTIN_BACKENDS)


class TestDeliveryPathParity:
    """Straight, sliced, dormant-fault and restored runs are identical."""

    @pytest.mark.parametrize("mode", list(HILMode))
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_hil_delivery_paths_agree(self, mode, workers):
        request = SimulationRequest.for_workload(
            "cholesky",
            block_size=128,
            problem_size=512,
            backend=mode.backend_name,
            num_workers=workers,
        )
        assert_delivery_paths_agree(run_delivery_paths(request))

    @pytest.mark.parametrize("mode", list(HILMode))
    @pytest.mark.parametrize("name", SATURATION_CASE_NAMES)
    def test_saturated_delivery_paths_agree(self, name, mode):
        """The capacity corners: TM/VM-full stalls and DM conflicts pend
        across slice horizons and the restored snapshot alike."""
        case = SATURATION_CASES[name]
        request = SimulationRequest.for_program(
            case.build_program(),
            backend=mode.backend_name,
            num_workers=case.workers,
            config=case.config,
        )
        assert_delivery_paths_agree(run_delivery_paths(request))

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_nanos_delivery_paths_agree(self, workers):
        request = SimulationRequest.for_workload(
            "sparselu",
            block_size=128,
            problem_size=512,
            backend="nanos",
            num_workers=workers,
        )
        assert_delivery_paths_agree(run_delivery_paths(request))


class TestMemoizedIndexing:
    """The per-address index memo computes exactly what index_for computes."""

    @pytest.mark.parametrize("use_pearson", [False, True])
    @pytest.mark.parametrize("num_sets", [1, 16, 64])
    def test_memoized_index_matches_reference(self, use_pearson, num_sets):
        index = make_index_function(use_pearson, num_sets)
        addresses = [0, 1, 63, 64, 0x1000, 0xDEAD_BEEF, 2**40 + 12345]
        # Two passes: the second hits the memo and must agree with the first.
        for _ in range(2):
            for address in addresses:
                assert index(address) == index_for(address, use_pearson, num_sets)

    def test_index_caches_are_per_instance(self):
        # Differently-sized memories must never share memo entries.
        a = make_index_function(True, 64)
        b = make_index_function(True, 16)
        assert a(0x1234) == index_for(0x1234, True, 64)
        assert b(0x1234) == index_for(0x1234, True, 16)

    def test_rejects_non_positive_set_count(self):
        with pytest.raises(ValueError):
            make_index_function(True, 0)


class TestEventsProcessedCounter:
    def test_hil_and_nanos_report_engine_event_counts(self):
        program = build_workload("case3")
        hil = HILSimulator(program, mode=HILMode.HW_ONLY, num_workers=2).run()
        nanos = NanosRuntimeSimulator(program, 2).run()
        # Every task contributes at least a visibility and a completion
        # event, so the counter is bounded below by the task count.
        assert hil.counters["events_processed"] >= program.num_tasks
        assert nanos.counters["events_processed"] >= program.num_tasks

    def test_every_event_is_delivered_and_counted_once(self):
        # Each task is one visibility and one completion event; where the
        # ARM core mediates, its create, dispatch and finish jobs add one
        # event each.  Nanos++ adds the master thread joining the team.
        program = build_workload("cholesky", 128, 512)
        for mode, per_task in (
            (HILMode.HW_ONLY, 2),
            (HILMode.HW_COMM, 5),
            (HILMode.FULL_SYSTEM, 5),
        ):
            result = HILSimulator(program, mode=mode, num_workers=4).run()
            assert result.counters["events_processed"] == per_task * program.num_tasks
        nanos = NanosRuntimeSimulator(program, 4).run()
        assert nanos.counters["events_processed"] == 2 * program.num_tasks + 1
