"""Tests for the declarative sweep runner: expansion, caching, parallelism."""

from __future__ import annotations

import json

import pytest

from repro.core.config import DMDesign, PicosConfig
from repro.experiments import fig01_granularity, runner
from repro.experiments.runner import (
    ExperimentSpec,
    JobResult,
    KIND_CHARACTERIZE,
    KIND_OVERHEAD,
    ResultCache,
    RunnerOptions,
    SweepPoint,
    config_extra,
    _config_from_extra,
    _overhead_from_extra,
    overhead_extra,
    point_cache_key,
    run_points,
    run_sweep,
)
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.overhead import NanosOverheadModel
from repro.sim.driver import simulate_request

SMALL = 256

#: A tiny sweep used throughout: 2 backends x 2 worker counts on a small
#: heat program (fast enough to simulate many times in one test session).
TINY_SPEC = ExperimentSpec(
    name="tiny",
    workloads=(("heat", 64),),
    backends=("nanos", "perfect"),
    worker_counts=(2, 4),
    problem_size=SMALL,
)


class TestSweepModel:
    def test_expand_is_deterministic_and_complete(self):
        points = TINY_SPEC.expand()
        assert len(points) == 4
        assert points == TINY_SPEC.expand()
        assert [(p.backend, p.num_workers) for p in points] == [
            ("nanos", 2),
            ("perfect", 2),
            ("nanos", 4),
            ("perfect", 4),
        ]

    def test_simulate_points_require_backend_and_workload(self):
        with pytest.raises(ValueError):
            SweepPoint(workload="heat", block_size=64)  # no backend
        with pytest.raises(ValueError):
            SweepPoint(backend="nanos")  # no workload
        with pytest.raises(ValueError):
            SweepPoint(kind="no-such-kind", workload="heat", backend="nanos")

    def test_points_are_hashable_and_serialisable(self):
        point = TINY_SPEC.expand()[0]
        assert point in {point}
        assert json.dumps(point.as_dict())

    def test_config_extra_round_trip(self):
        config = PicosConfig.paper_prototype(DMDesign.WAY16)
        assert _config_from_extra(dict(config_extra(config))) == config
        assert _config_from_extra({}) is None

    def test_overhead_extra_round_trip(self):
        model = NanosOverheadModel(creation_base=1234)
        assert _overhead_from_extra(dict(overhead_extra(model))) == model
        assert _overhead_from_extra({}) is None


class TestCacheKeys:
    def test_key_is_stable_across_calls(self):
        point = TINY_SPEC.expand()[0]
        assert point_cache_key(point) == point_cache_key(point)

    def test_key_depends_on_simulation_inputs(self):
        base = SweepPoint(
            workload="heat", block_size=64, problem_size=SMALL, backend="nanos"
        )
        variants = [
            SweepPoint(workload="heat", block_size=32, problem_size=SMALL, backend="nanos"),
            SweepPoint(workload="heat", block_size=64, problem_size=SMALL, backend="perfect"),
            SweepPoint(workload="heat", block_size=64, problem_size=SMALL, backend="nanos", num_workers=4),
            SweepPoint(workload="heat", block_size=64, problem_size=SMALL, backend="nanos", dm_design="16way"),
            SweepPoint(workload="heat", block_size=64, problem_size=SMALL, backend="nanos", policy="lifo"),
        ]
        keys = {point_cache_key(point) for point in variants}
        assert point_cache_key(base) not in keys
        assert len(keys) == len(variants)

    def test_key_ignores_the_experiment_label(self):
        a = SweepPoint(experiment="figA", workload="heat", block_size=64, problem_size=SMALL, backend="nanos")
        b = SweepPoint(experiment="figB", workload="heat", block_size=64, problem_size=SMALL, backend="nanos")
        assert point_cache_key(a) == point_cache_key(b)

    def test_keys_are_minted_by_the_request(self):
        """Simulation cache keys come from SimulationRequest.cache_key."""
        from repro import __version__
        from repro.experiments.runner import CACHE_SCHEMA_VERSION, KIND_SIMULATE

        point = SweepPoint(
            workload="heat", block_size=64, problem_size=SMALL, backend="hil-hw",
            dm_design="16way", num_workers=4,
        )
        request = point.to_request()
        assert point_cache_key(point) == request.cache_key(
            prefix=(CACHE_SCHEMA_VERSION, __version__, KIND_SIMULATE),
            suffix=(point.extra,),
        )


class TestPointToRequest:
    def test_simulate_point_maps_to_an_executable_request(self):
        point = SweepPoint(
            workload="heat", block_size=64, problem_size=SMALL,
            backend="hil-hw", dm_design="16way", num_workers=4, policy="lifo",
        )
        request = point.to_request()
        assert request.backend == "hil-hw"
        assert request.num_workers == 4
        assert request.policy.value == "lifo"
        assert request.config == PicosConfig.paper_prototype(DMDesign.WAY16)
        request.validate()

    def test_explicit_config_in_extra_wins_over_dm_design(self):
        config = PicosConfig(tm_entries=32)
        point = SweepPoint(
            workload="heat", block_size=64, problem_size=SMALL,
            backend="hil-hw", dm_design="16way", extra=config_extra(config),
        )
        assert point.to_request().config == config

    def test_overhead_extra_reaches_the_request(self):
        model = NanosOverheadModel(creation_base=777)
        point = SweepPoint(
            workload="heat", block_size=64, problem_size=SMALL,
            backend="nanos", extra=overhead_extra(model),
        )
        assert point.to_request().overhead == model

    def test_non_simulate_points_do_not_map(self):
        point = SweepPoint(kind=KIND_CHARACTERIZE, workload="heat", block_size=64)
        with pytest.raises(ValueError):
            point.to_request()


class TestExecution:
    def test_results_match_direct_simulation(self):
        results = run_sweep(TINY_SPEC)
        for point, job in results.items():
            assert isinstance(job, JobResult)
            if point.backend == "nanos":
                direct = NanosRuntimeSimulator(
                    runner.build_workload("heat", 64, SMALL),
                    num_threads=point.num_workers,
                ).run()
                assert job.metrics["makespan"] == direct.makespan
                assert job.speedup == pytest.approx(direct.speedup)

    def test_parallel_equals_serial(self):
        serial = run_sweep(TINY_SPEC, RunnerOptions(jobs=1))
        parallel = run_sweep(TINY_SPEC, RunnerOptions(jobs=2))
        assert list(serial) == list(parallel)
        for point in serial:
            assert serial[point].to_document() == parallel[point].to_document()

    def test_characterize_kind(self):
        spec = ExperimentSpec(
            name="char",
            kind=KIND_CHARACTERIZE,
            workloads=(("heat", 64),),
            problem_size=SMALL,
        )
        (job,) = run_sweep(spec).values()
        program = runner.build_workload("heat", 64, SMALL)
        assert job.metrics["num_tasks"] == program.num_tasks
        assert job.metrics["sequential_cycles"] == program.sequential_cycles

    def test_overhead_kind(self):
        spec = ExperimentSpec(
            name="ovh",
            kind=KIND_OVERHEAD,
            workloads=(("nanos-overhead", None),),
            extra=(("dep_counts", (1, 3)), ("thread_counts", (1, 2, 4))),
        )
        (job,) = run_sweep(spec).values()
        model = NanosOverheadModel()
        assert job.payload["curves"]["creation"] == [
            model.creation_cycles(t) for t in (1, 2, 4)
        ]

    def test_duplicate_points_collapse(self):
        point = TINY_SPEC.expand()[0]
        results = run_points([point, point])
        assert len(results) == 1

    def test_simulate_spec_without_backends_fails_at_expand(self):
        spec = ExperimentSpec(name="broken", workloads=(("heat", 64),))
        with pytest.raises(ValueError, match="broken.*backends"):
            spec.expand()

    def test_config_insensitive_backends_rejected_where_meaningless(self):
        from repro.experiments import fig08_dm_designs, table2_dm_conflicts
        from repro.experiments.runner import require_config_sensitive_backend

        for backend in ("nanos", "perfect"):
            with pytest.raises(ValueError):
                require_config_sensitive_backend("x", backend)
            with pytest.raises(ValueError):
                fig08_dm_designs.fig08_spec(backend=backend)
            with pytest.raises(ValueError):
                table2_dm_conflicts.table2_spec(backend=backend)
        require_config_sensitive_backend("x", "hil-hw")
        require_config_sensitive_backend("x", "my-custom-hw")

    def test_plugin_backend_runs_under_parallel_options(self, plugin_backend):
        point = SweepPoint(
            workload="heat",
            block_size=64,
            problem_size=SMALL,
            backend=plugin_backend,
        )
        # A backend registered only in this process must not be shipped
        # to pool workers; the runner executes it in-process even when
        # parallelism is requested.
        assert not runner._is_pool_safe(point)
        mixed = TINY_SPEC.expand() + [point]
        results = run_points(mixed, RunnerOptions(jobs=2))
        straight = simulate_request(point.to_request())
        assert results[point].simulator == straight.simulator
        assert results[point].metrics["makespan"] == straight.makespan


class TestCache:
    def test_second_run_hits_the_cache_without_simulating(self, tmp_path, monkeypatch):
        options = RunnerOptions(jobs=1, cache_dir=tmp_path)
        cold = run_sweep(TINY_SPEC, options)
        assert all(not job.cached for job in cold.values())
        assert len(ResultCache(tmp_path)) == len(cold)

        # Any attempt to simulate again would now blow up: the second run
        # must be served entirely from the on-disk cache.
        def explode(point):
            raise AssertionError(f"cache miss for {point}")

        monkeypatch.setattr(runner, "_execute_point", explode)
        warm = run_sweep(TINY_SPEC, options)
        assert all(job.cached for job in warm.values())
        for point in cold:
            assert warm[point].to_document() == cold[point].to_document()

    def test_cache_entries_are_valid_json_documents(self, tmp_path):
        options = RunnerOptions(jobs=1, cache_dir=tmp_path)
        results = run_sweep(TINY_SPEC, options)
        entries = list(tmp_path.glob("*/*.json"))
        assert len(entries) == len(results)
        for entry in entries:
            document = json.loads(entry.read_text())
            assert document["version"] == runner.CACHE_SCHEMA_VERSION
            assert document["point"]["workload"] == "heat"
            assert "metrics" in document["result"]

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        options = RunnerOptions(jobs=1, cache_dir=tmp_path)
        run_sweep(TINY_SPEC, options)
        for entry in tmp_path.glob("*/*.json"):
            entry.write_text("{not json")
        redone = run_sweep(TINY_SPEC, options)
        assert all(not job.cached for job in redone.values())

    def test_stale_schema_version_is_ignored(self, tmp_path):
        options = RunnerOptions(jobs=1, cache_dir=tmp_path)
        run_sweep(TINY_SPEC, options)
        for entry in tmp_path.glob("*/*.json"):
            document = json.loads(entry.read_text())
            document["version"] = -1
            entry.write_text(json.dumps(document))
        redone = run_sweep(TINY_SPEC, options)
        assert all(not job.cached for job in redone.values())

    def test_parallel_warm_run_equals_cold_serial_run(self, tmp_path):
        cold = run_sweep(TINY_SPEC)
        options = RunnerOptions(jobs=2, cache_dir=tmp_path)
        first = run_sweep(TINY_SPEC, options)
        second = run_sweep(TINY_SPEC, options)
        for point in cold:
            assert cold[point].to_document() == first[point].to_document()
            assert first[point].to_document() == second[point].to_document()
        assert all(job.cached for job in second.values())


class TestExperimentIntegration:
    def test_fig01_through_runner_matches_direct_simulation(self):
        sweeps = {"heat": (128, 64)}
        curves = fig01_granularity.run_fig01(problem_size=SMALL, sweeps=sweeps)
        for block_size, speedup in curves["heat"].items():
            direct = NanosRuntimeSimulator(
                runner.build_workload("heat", block_size, SMALL), num_threads=12
            ).run()
            assert speedup == pytest.approx(direct.speedup)

    def test_fig01_parallel_equals_serial(self, tmp_path):
        sweeps = {"heat": (128, 64), "cholesky": (64,)}
        serial = fig01_granularity.run_fig01(
            problem_size=SMALL, sweeps=sweeps, options=RunnerOptions(jobs=1)
        )
        parallel = fig01_granularity.run_fig01(
            problem_size=SMALL,
            sweeps=sweeps,
            options=RunnerOptions(jobs=3, cache_dir=tmp_path),
        )
        assert serial == parallel


class TestCacheTempHygiene:
    """Failed writes must not leak ``*.tmp.<pid>`` files into the cache."""

    def _point(self):
        return TINY_SPEC.expand()[0]

    def test_failed_dump_removes_its_temp_file_and_reraises(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        point = self._point()

        def exploding_dump(*args, **kwargs):
            raise RuntimeError("disk full mid-write")

        monkeypatch.setattr(runner.json, "dump", exploding_dump)
        with pytest.raises(RuntimeError, match="disk full"):
            cache.put("ab" * 12, point, {"kind": "simulate"})
        leftovers = list(tmp_path.rglob("*.tmp.*"))
        assert leftovers == []
        # The entry itself must not exist either (nothing was replaced in).
        assert cache.get("ab" * 12) is None

    def test_constructor_sweeps_stale_temp_files(self, tmp_path):
        import os
        import time

        stale = tmp_path / "ab" / "abcdef.tmp.12345"
        stale.parent.mkdir(parents=True)
        stale.write_text("{half-written")
        old = time.time() - 2 * ResultCache.STALE_TEMP_SECONDS
        os.utime(stale, (old, old))
        ResultCache(tmp_path)
        assert not stale.exists()

    def test_constructor_keeps_fresh_temp_files(self, tmp_path):
        # A recent temp file may belong to a concurrent writer mid-flight;
        # the sweep must leave it alone.
        fresh = tmp_path / "cd" / "cdef01.tmp.54321"
        fresh.parent.mkdir(parents=True)
        fresh.write_text("{in-flight")
        ResultCache(tmp_path)
        assert fresh.exists()

    def test_successful_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 12
        cache.put(key, self._point(), {"kind": "simulate"})
        assert list(tmp_path.rglob("*.tmp.*")) == []
        assert cache.get(key) == {"kind": "simulate"}


class TestCacheHardening:
    """Torn entries are quarantined misses; concurrent writers never tear."""

    def _point(self):
        return TINY_SPEC.expand()[0]

    @pytest.mark.parametrize(
        "wreck",
        [
            b'{"version": 1, "result": {"tor',  # torn mid-write
            b'{"version": 1, "result": {"kind": "\xff"}}',  # not UTF-8
            pytest.param(
                b'{"version": 1, "result": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                id="nested-past-the-recursion-limit",
            ),
        ],
    )
    def test_torn_json_is_a_miss_and_gets_quarantined(self, tmp_path, wreck):
        cache = ResultCache(tmp_path)
        key = "ab" * 12
        cache.put(key, self._point(), {"kind": "simulate"})
        entry = cache.path_for(key)
        entry.write_bytes(wreck)
        assert cache.get(key) is None
        # The wreck moved aside: the lookup path is free for a re-put, and
        # the evidence survives as a .corrupt sibling for inspection.
        assert not entry.exists()
        quarantined = list(tmp_path.rglob("*.corrupt.*"))
        assert len(quarantined) == 1
        # A fresh put over the quarantined key works and hits again.
        cache.put(key, self._point(), {"kind": "simulate"})
        assert cache.get(key) == {"kind": "simulate"}

    def test_non_mapping_document_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 12
        cache.put(key, self._point(), {"kind": "simulate"})
        entry = cache.path_for(key)
        entry.write_text('[1, 2, 3]')  # valid JSON, wrong shape
        assert cache.get(key) is None
        assert entry.exists()  # decodable files are not quarantined

    def test_result_field_must_be_a_mapping(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "dd" * 12
        entry = cache.path_for(key)
        entry.parent.mkdir(parents=True)
        entry.write_text(json.dumps({"version": runner.CACHE_SCHEMA_VERSION, "result": 5}))
        assert cache.get(key) is None

    def test_constructor_sweeps_stale_quarantine_files(self, tmp_path):
        import os
        import time

        stale = tmp_path / "ab" / ("ab" * 12 + ".corrupt.4242")
        stale.parent.mkdir(parents=True)
        stale.write_text("{torn")
        old = time.time() - 2 * ResultCache.STALE_TEMP_SECONDS
        os.utime(stale, (old, old))
        ResultCache(tmp_path)
        assert not stale.exists()

    def test_concurrent_same_key_writers_never_tear_the_entry(self, tmp_path):
        # Many threads hammering one key with distinct documents: every
        # read along the way (and the final state) must be one writer's
        # document, intact -- atomic replace means last-writer-wins, never
        # an interleaving of two writes.
        import threading

        cache = ResultCache(tmp_path)
        key = "ee" * 12
        writers = 8
        rounds = 50
        failures = []
        start = threading.Barrier(writers + 1)

        def write_loop(writer_id):
            start.wait()
            for round_number in range(rounds):
                cache.put(
                    key, None, {"writer": writer_id, "round": round_number}
                )

        def read_loop():
            start.wait()
            for _ in range(writers * rounds):
                document = cache.get(key)
                if document is None:
                    continue  # not written yet / mid-quarantine: a miss is fine
                if set(document) != {"writer", "round"}:
                    failures.append(document)

        threads = [
            threading.Thread(target=write_loop, args=(i,)) for i in range(writers)
        ] + [threading.Thread(target=read_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        final = cache.get(key)
        assert final is not None and set(final) == {"writer", "round"}
        assert list(tmp_path.rglob("*.tmp.*")) == []
