"""Loopback tests of the asyncio simulation server.

Every test starts a real :class:`SimulationServer` on an ephemeral
loopback port inside ``asyncio.run`` and talks to it over actual sockets
-- the full transport path, minus process boundaries (those are covered by
``tools/service_client.py`` in the CI smoke job).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.session import lifecycle_events
from repro.service import ServerConfig, SimulationServer, TenantQuota
from repro.service.protocol import (
    REJECT_BAD_REQUEST,
    REJECT_DUPLICATE_SESSION,
    REJECT_SERVER_CAPACITY,
    REJECT_SESSION_QUOTA,
    REJECT_SESSION_STATE,
    REJECT_UNKNOWN_SESSION,
    decode_frame,
    encode_frame,
    events_to_document,
    result_from_document,
)
from repro.service.server import _READ_LIMIT

SMALL = 512

#: The standard loopback request (small, several slices).
def _request_document(backend="hil-full", **extra):
    document = {
        "workload": "cholesky",
        "block_size": 128,
        "problem_size": SMALL,
        "backend": backend,
        "workers": 4,
        "stream": {"slice_cycles": 50_000},
    }
    document.update(extra)
    return document


def _typed_request(document):
    from repro.service.protocol import request_from_document

    return request_from_document(document)


class Client:
    """Minimal asyncio NDJSON test client."""

    @classmethod
    async def connect(cls, server: SimulationServer) -> "Client":
        self = cls()
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", server.tcp_port
        )
        hello = await self.recv()
        assert hello["type"] == "hello"
        return self

    async def send(self, frame) -> None:
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return decode_frame(line)

    async def run_to_completion(self, session_id):
        """Collect streamed events until the result frame."""
        events = []
        while True:
            frame = await self.recv()
            if frame["type"] == "events":
                assert frame["id"] == session_id
                events.extend(frame["events"])
            elif frame["type"] == "result":
                return events, frame
            else:
                raise AssertionError(f"unexpected frame {frame}")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def run_with_server(test, config: ServerConfig = None):
    """Start a server, run ``test(server)``, always shut down."""

    async def harness():
        server = SimulationServer(
            config or ServerConfig(port=0, http_port=0, idle_timeout=300.0)
        )
        await server.start()
        try:
            return await test(server)
        finally:
            await server.shutdown(drain=False)

    return asyncio.run(harness())


class TestEndToEnd:
    @pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
    def test_served_run_matches_batch_for_every_backend(self, backend):
        document = _request_document(backend)
        batch = simulate_request(_typed_request(document))

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "a", "request": document})
            accepted = await client.recv()
            assert accepted["type"] == "accepted"
            await client.send({"type": "run", "id": "a"})
            events, result_frame = await client.run_to_completion("a")
            await client.close()
            return events, result_frame

        events, result_frame = run_with_server(scenario)
        assert result_frame["cached"] is False
        assert result_from_document(result_frame["result"]) == batch
        assert events == events_to_document(lifecycle_events(batch))

    def test_inline_program_with_submit_frames(self):
        async def scenario(server):
            client = await Client.connect(server)
            await client.send(
                {
                    "type": "open",
                    "id": "inline",
                    "request": {
                        "backend": "hil-full",
                        "workers": 2,
                        "name": "wire-fed",
                    },
                }
            )
            assert (await client.recv())["type"] == "accepted"
            await client.send(
                {
                    "type": "submit",
                    "id": "inline",
                    "tasks": [
                        [0, 10, [[64, "out"]]],
                        [1, 10, [[64, "in"]]],
                        [2, 10, [[64, "in"]]],
                    ],
                }
            )
            submitted = await client.recv()
            assert submitted == {"type": "submitted", "id": "inline", "count": 3}
            await client.send({"type": "run", "id": "inline"})
            events, result_frame = await client.run_to_completion("inline")
            await client.close()
            return events, result_frame

        events, result_frame = run_with_server(scenario)
        result = result_from_document(result_frame["result"])
        assert result.num_tasks == 3
        assert len(events) == 9

    def test_two_sessions_interleave_on_one_connection(self):
        document = _request_document()
        batch = simulate_request(_typed_request(document))

        async def scenario(server):
            client = await Client.connect(server)
            for session_id in ("x", "y"):
                await client.send(
                    {"type": "open", "id": session_id, "request": document}
                )
                assert (await client.recv())["type"] == "accepted"
                await client.send({"type": "run", "id": session_id})
            streams = {"x": [], "y": []}
            results = {}
            while len(results) < 2:
                frame = await client.recv()
                if frame["type"] == "events":
                    streams[frame["id"]].extend(frame["events"])
                elif frame["type"] == "result":
                    results[frame["id"]] = frame["result"]
            await client.close()
            return streams, results

        streams, results = run_with_server(scenario)
        expected = events_to_document(lifecycle_events(batch))
        for session_id in ("x", "y"):
            assert result_from_document(results[session_id]) == batch
            assert streams[session_id] == expected

    def test_stats_ping_and_metrics_frames(self):
        document = _request_document()

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "ping"})
            pong = await client.recv()
            assert pong["type"] == "pong"
            await client.send({"type": "open", "id": "s", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "stats", "id": "s"})
            stats = await client.recv()
            assert stats["type"] == "stats"
            assert stats["state"] == "accepted"
            assert stats["session"]["tasks_submitted"] > 0
            await client.send({"type": "run", "id": "s"})
            await client.run_to_completion("s")
            await client.send({"type": "metrics"})
            metrics = await client.recv()
            await client.close()
            return metrics["metrics"]

        metrics = run_with_server(scenario)
        assert metrics["sessions"]["completed"] == 1
        assert metrics["streaming"]["events_streamed"] > 0
        assert metrics["slices"]["count"] >= 1


class TestRejections:
    def test_over_quota_open_is_rejected_with_typed_code(self):
        document = _request_document(tenant="teamA")
        config = ServerConfig(
            port=0,
            http_port=None,
            tenant_quotas={"teamA": TenantQuota(max_sessions=1)},
        )

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "one", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "open", "id": "two", "request": document})
            rejection = await client.recv()
            await client.close()
            return rejection, server.metrics.snapshot()

        rejection, metrics = run_with_server(scenario, config)
        assert rejection["type"] == "rejected"
        assert rejection["code"] == REJECT_SESSION_QUOTA
        assert rejection["tenant"] == "teamA"
        assert rejection["limit"] == 1
        assert metrics["sessions"]["rejected"] == {REJECT_SESSION_QUOTA: 1}

    def test_server_capacity_rejection(self):
        document = _request_document()
        config = ServerConfig(port=0, http_port=None, max_sessions=1)

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "one", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "open", "id": "two", "request": document})
            rejection = await client.recv()
            # Finishing the first session frees capacity for a retry.
            await client.send({"type": "run", "id": "one"})
            await client.run_to_completion("one")
            await client.send({"type": "open", "id": "three", "request": document})
            retried = await client.recv()
            await client.close()
            return rejection, retried

        rejection, retried = run_with_server(scenario, config)
        assert rejection["code"] == REJECT_SERVER_CAPACITY
        assert retried["type"] == "accepted"

    def test_malformed_and_unknown_frames(self):
        async def scenario(server):
            client = await Client.connect(server)
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            garbage = await client.recv()
            await client.send({"type": "open", "id": "bad", "request": {"workload": "no-such-workload"}})
            bad_request = await client.recv()
            await client.send({"type": "run", "id": "ghost"})
            unknown = await client.recv()
            await client.send({"type": "frobnicate", "id": "bad"})
            unknown_type = await client.recv()
            await client.close()
            return garbage, bad_request, unknown, unknown_type

        garbage, bad_request, unknown, unknown_type = run_with_server(scenario)
        assert garbage["type"] == "error"
        assert garbage["code"] == REJECT_BAD_REQUEST
        assert bad_request["type"] == "rejected"
        assert bad_request["code"] == REJECT_BAD_REQUEST
        assert unknown["type"] == "error"
        assert unknown["code"] == REJECT_UNKNOWN_SESSION
        assert unknown_type["code"] == REJECT_UNKNOWN_SESSION

    def test_non_utf8_frame_is_a_bad_request_and_the_connection_lives(self):
        async def scenario(server):
            client = await Client.connect(server)
            client.writer.write(b'{"type":"ping","x":"\xff"}\n')
            await client.writer.drain()
            error = await client.recv()
            await client.send({"type": "ping"})
            pong = await client.recv()
            await client.close()
            return error, pong

        error, pong = run_with_server(scenario)
        assert error["type"] == "error"
        assert error["code"] == REJECT_BAD_REQUEST
        assert pong["type"] == "pong"

    def test_duplicate_session_id_is_rejected(self):
        document = _request_document()

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "dup", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "open", "id": "dup", "request": document})
            rejection = await client.recv()
            await client.close()
            return rejection

        rejection = run_with_server(scenario)
        assert rejection["type"] == "rejected"
        assert rejection["code"] == REJECT_DUPLICATE_SESSION

    def test_rejected_session_does_not_hold_a_quota_slot(self):
        config = ServerConfig(port=0, http_port=None, max_sessions=5)

        async def scenario(server):
            client = await Client.connect(server)
            # A request that fails open_session (unknown workload) must
            # release its admission ticket.
            for _ in range(10):
                await client.send(
                    {
                        "type": "open",
                        "request": {"workload": "never-heard-of-it"},
                    }
                )
                assert (await client.recv())["type"] == "rejected"
            await client.send(
                {"type": "open", "id": "ok", "request": _request_document()}
            )
            accepted = await client.recv()
            await client.close()
            return accepted, server.admission.active_sessions()

        accepted, active = run_with_server(scenario, config)
        assert accepted["type"] == "accepted"
        assert active == 1


def _admission_frame(kind, session_id, document):
    """An ``open`` frame for ``document``, or a ``restore`` of its checkpoint."""
    if kind == "open":
        return {"type": "open", "id": session_id, "request": document}
    from repro.sim.session import open_session

    source = open_session(_typed_request(document))
    snapshot = source.checkpoint()
    source.close()
    return {"type": "restore", "id": session_id, "snapshot": snapshot.document()}


class TestAdmissionPaths:
    """``open`` and ``restore`` frames go through one admission path."""

    @pytest.mark.parametrize("kind", ["open", "restore"])
    def test_over_quota_rejection_frame(self, kind):
        document = _request_document(tenant="teamA")
        frame = _admission_frame(kind, "two", document)
        config = ServerConfig(
            port=0,
            http_port=None,
            tenant_quotas={"teamA": TenantQuota(max_sessions=1)},
        )

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "one", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send(frame)
            rejection = await client.recv()
            metrics = server.metrics.snapshot()
            await client.close()
            return rejection, metrics

        rejection, metrics = run_with_server(scenario, config)
        assert set(rejection) == {"type", "id", "code", "error", "tenant", "limit"}
        assert rejection["type"] == "rejected"
        assert rejection["id"] == "two"
        assert rejection["code"] == REJECT_SESSION_QUOTA
        assert rejection["tenant"] == "teamA"
        assert rejection["limit"] == 1
        assert metrics["sessions"]["admitted"] == 1
        assert metrics["sessions"]["rejected"] == {REJECT_SESSION_QUOTA: 1}
        assert metrics["snapshots"]["sessions_restored"] == 0

    @pytest.mark.parametrize("kind", ["open", "restore"])
    def test_admitted_session_is_acknowledged_and_counted(self, kind):
        frame = _admission_frame(kind, "s", _request_document(tenant="teamB"))

        async def scenario(server):
            client = await Client.connect(server)
            await client.send(frame)
            ack = await client.recv()
            metrics = server.metrics.snapshot()
            await client.close()
            return ack, metrics

        ack, metrics = run_with_server(scenario)
        assert ack["type"] == ("accepted" if kind == "open" else "restored")
        assert ack["id"] == "s"
        assert ack["tenant"] == "teamB"
        assert metrics["sessions"]["admitted"] == 1
        assert metrics["sessions"]["active"] == 1
        assert metrics["sessions"]["rejected"] == {}
        assert metrics["snapshots"]["sessions_restored"] == (kind == "restore")


class TestLifecycle:
    def test_cancel_mid_run_releases_the_slot(self):
        # A throttled run cancelled mid-flight frees its quota slot and the
        # engine state; the server stays serviceable.  The "molasses"
        # tenant's cycle throttle guarantees the run cannot finish before
        # the cancel frame arrives.
        document = _request_document("hil-full", tenant="molasses")
        document["stream"] = {"slice_cycles": 50_000}
        config = ServerConfig(
            port=0,
            http_port=None,
            max_sessions=1,
            tenant_quotas={"molasses": TenantQuota(cycles_per_second=200_000.0)},
        )

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "long", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "long"})
            # Let it make some progress, then cancel.
            await asyncio.sleep(0.02)
            await client.send({"type": "cancel", "id": "long"})
            while True:
                frame = await client.recv()
                if frame["type"] == "cancelled":
                    break
                assert frame["type"] == "events"
            # The slot is free: a new session is admitted and completes.
            await client.send(
                {"type": "open", "id": "next", "request": _request_document()}
            )
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "next"})
            _, result_frame = await client.run_to_completion("next")
            await client.close()
            return result_frame, server.metrics.snapshot()

        result_frame, metrics = run_with_server(scenario, config)
        assert result_frame["type"] == "result"
        assert metrics["sessions"]["cancelled"] == 1
        assert metrics["sessions"]["completed"] == 1
        assert metrics["sessions"]["active"] == 0

    def test_disconnect_cancels_live_sessions(self):
        document = _request_document(tenant="molasses")
        document["stream"] = {"slice_cycles": 50_000}

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "gone", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "gone"})
            await asyncio.sleep(0.02)
            await client.close()  # vanish mid-run
            for _ in range(100):
                await asyncio.sleep(0.01)
                if server.admission.active_sessions() == 0:
                    break
            return server.admission.active_sessions(), len(server.registry)

        config = ServerConfig(
            port=0,
            http_port=None,
            tenant_quotas={"molasses": TenantQuota(cycles_per_second=200_000.0)},
        )
        active, registered = run_with_server(scenario, config)
        assert active == 0
        assert registered == 0

    def test_idle_accepted_sessions_are_evicted(self):
        config = ServerConfig(port=0, http_port=None, idle_timeout=0.05)

        async def scenario(server):
            client = await Client.connect(server)
            await client.send(
                {"type": "open", "id": "idler", "request": _request_document()}
            )
            assert (await client.recv())["type"] == "accepted"
            evicted = await asyncio.wait_for(client.recv(), timeout=5.0)
            await client.close()
            return evicted, server.metrics.snapshot()

        evicted, metrics = run_with_server(scenario, config)
        assert evicted == {"type": "evicted", "id": "idler"}
        assert metrics["sessions"]["evicted"] == 1
        assert metrics["sessions"]["active"] == 0

    def test_running_sessions_are_not_evicted_by_idleness(self):
        document = _request_document()
        document["stream"] = {"slice_cycles": 2_000}
        config = ServerConfig(port=0, http_port=None, idle_timeout=0.05)

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "busy", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "busy"})
            _, result_frame = await client.run_to_completion("busy")
            await client.close()
            return result_frame

        result_frame = run_with_server(scenario, config)
        assert result_frame["type"] == "result"

    def test_shutdown_drains_running_sessions(self):
        document = _request_document()

        async def scenario():
            server = SimulationServer(ServerConfig(port=0, http_port=None))
            await server.start()
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "d", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "d"})
            # Shut down immediately: drain must let the run finish.
            shutdown = asyncio.get_running_loop().create_task(
                server.shutdown(drain=True)
            )
            events, result_frame = await client.run_to_completion("d")
            await shutdown
            await client.close()
            return events, result_frame

        events, result_frame = asyncio.run(scenario())
        assert result_frame["type"] == "result"
        assert events  # the stream arrived before shutdown completed


class TestSharedCache:
    def test_two_server_instances_share_one_cache_directory(self, tmp_path):
        document = _request_document()
        cache_dir = tmp_path / "shared-cache"

        async def scenario():
            config_a = ServerConfig(port=0, http_port=None, cache_dir=cache_dir)
            server_a = SimulationServer(config_a)
            await server_a.start()
            client = await Client.connect(server_a)
            await client.send({"type": "open", "id": "a", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "a"})
            events_a, result_a = await client.run_to_completion("a")
            await client.close()
            await server_a.shutdown()  # awaits the write-behind

            config_b = ServerConfig(port=0, http_port=None, cache_dir=cache_dir)
            server_b = SimulationServer(config_b)
            await server_b.start()
            client = await Client.connect(server_b)
            await client.send({"type": "open", "id": "b", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "b"})
            events_b, result_b = await client.run_to_completion("b")
            await client.close()
            metrics = server_b.metrics.snapshot()
            await server_b.shutdown()
            return events_a, result_a, events_b, result_b, metrics

        events_a, result_a, events_b, result_b, metrics = asyncio.run(scenario())
        assert result_a["cached"] is False
        assert result_b["cached"] is True
        assert result_a["result"] == result_b["result"]
        assert events_a == events_b
        assert metrics["cache"]["hits"] == 1
        assert metrics["slices"]["count"] == 0  # nothing was simulated

    def test_tenant_does_not_affect_the_cache_entry(self, tmp_path):
        # Same simulation for two tenants: the second is a hit because the
        # key is tenant-neutral.
        cache_dir = tmp_path / "cache"

        async def scenario(server):
            client = await Client.connect(server)
            cached_flags = []
            for index, tenant in enumerate(("alpha", "beta")):
                session_id = f"s{index}"
                await client.send(
                    {
                        "type": "open",
                        "id": session_id,
                        "request": _request_document(tenant=tenant),
                    }
                )
                assert (await client.recv())["type"] == "accepted"
                await client.send({"type": "run", "id": session_id})
                _, result_frame = await client.run_to_completion(session_id)
                cached_flags.append(result_frame["cached"])
                # Make the write-behind durable before the second request.
                if server._cache_writes:
                    await asyncio.gather(*server._cache_writes)
            await client.close()
            return cached_flags

        config = ServerConfig(port=0, http_port=None, cache_dir=cache_dir)
        cached_flags = run_with_server(scenario, config)
        assert cached_flags == [False, True]


class TestCheckpointRestore:
    def test_checkpoint_then_restore_round_trips_over_the_wire(self):
        # A freshly accepted session checkpoints as an "initial" snapshot;
        # restoring that document into a new session and running it must
        # reproduce the batch run exactly.
        document = _request_document()
        batch = simulate_request(_typed_request(document))

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "src", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "checkpoint", "id": "src"})
            checkpoint = await client.recv()
            assert checkpoint["type"] == "checkpoint"
            await client.send({"type": "cancel", "id": "src"})
            assert (await client.recv())["type"] == "cancelled"
            await client.send(
                {"type": "restore", "id": "dst", "snapshot": checkpoint["snapshot"]}
            )
            restored = await client.recv()
            assert restored["type"] == "restored"
            await client.send({"type": "run", "id": "dst"})
            events, result_frame = await client.run_to_completion("dst")
            await client.close()
            return checkpoint, restored, events, result_frame

        checkpoint, restored, events, result_frame = run_with_server(scenario)
        assert checkpoint["kind"] == "initial"
        assert checkpoint["cycle"] == 0
        assert checkpoint["digest"] == checkpoint["snapshot"]["digest"]
        assert restored["kind"] == "initial"
        assert result_from_document(result_frame["result"]) == batch
        assert events == events_to_document(lifecycle_events(batch))

    def test_restore_mid_run_snapshot_continues_bit_exactly(self):
        # A snapshot captured mid-run by a *library* client (CLI, notebook)
        # restores into a server session that owes only the remaining
        # cycles: streamed tail events splice onto the pre-capture events
        # to reproduce the straight run's stream.
        from repro.sim.session import open_session

        request = _typed_request(_request_document())
        batch = simulate_request(request)
        source = open_session(request)
        pre = list(source.advance(60_000).events)
        snapshot = source.checkpoint()
        source.close()

        async def scenario(server):
            client = await Client.connect(server)
            await client.send(
                {"type": "restore", "snapshot": snapshot.document()}
            )
            restored = await client.recv()
            assert restored["type"] == "restored"
            session_id = restored["id"]
            await client.send({"type": "run", "id": session_id})
            events, result_frame = await client.run_to_completion(session_id)
            await client.close()
            return restored, events, result_frame, server.metrics.snapshot()

        restored, tail, result_frame, metrics = run_with_server(scenario)
        assert restored["kind"] == "mid-run"
        assert restored["cycle"] == snapshot.cycle
        assert result_frame["cached"] is False
        assert result_from_document(result_frame["result"]) == batch
        assert events_to_document(pre) + tail == events_to_document(
            lifecycle_events(batch)
        )
        assert metrics["snapshots"]["sessions_restored"] == 1

    def test_restored_session_bypasses_the_cache_read(self, tmp_path):
        # A cached result for the same request must not short-circuit a
        # restored mid-run session: a hit would replay the full event
        # stream instead of resuming at the captured cycle.
        from repro.sim.session import open_session

        request = _typed_request(_request_document())
        batch = simulate_request(request)
        source = open_session(request)
        pre = list(source.advance(60_000).events)
        snapshot = source.checkpoint()
        source.close()
        config = ServerConfig(port=0, http_port=None, cache_dir=tmp_path / "cache")

        async def scenario(server):
            client = await Client.connect(server)
            # Prime the cache with a straight run of the same request.
            await client.send(
                {"type": "open", "id": "warm", "request": _request_document()}
            )
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "warm"})
            await client.run_to_completion("warm")
            if server._cache_writes:
                await asyncio.gather(*server._cache_writes)
            await client.send(
                {"type": "restore", "id": "resumed", "snapshot": snapshot.document()}
            )
            assert (await client.recv())["type"] == "restored"
            await client.send({"type": "run", "id": "resumed"})
            events, result_frame = await client.run_to_completion("resumed")
            await client.close()
            return events, result_frame

        tail, result_frame = run_with_server(scenario, config)
        assert result_frame["cached"] is False  # resumed, not replayed
        assert result_from_document(result_frame["result"]) == batch
        assert events_to_document(pre) + tail == events_to_document(
            lifecycle_events(batch)
        )

    def test_checkpoint_requires_an_accepted_session(self):
        async def scenario(server):
            client = await Client.connect(server)
            await client.send(
                {"type": "open", "id": "done", "request": _request_document()}
            )
            assert (await client.recv())["type"] == "accepted"
            await client.send({"type": "run", "id": "done"})
            await client.run_to_completion("done")
            await client.send({"type": "checkpoint", "id": "done"})
            error = await client.recv()
            await client.close()
            return error

        error = run_with_server(scenario)
        assert error["type"] == "error"
        assert error["code"] == REJECT_SESSION_STATE

    def test_restore_rejects_a_forged_lifecycle_log(self):
        # A re-digested document passes the load-time digest check; the
        # restore's own log check must refuse it before the session exists
        # and hand the admitted slot back.
        from repro.core.hashing import stable_digest
        from repro.sim.session import open_session

        source = open_session(_typed_request(_request_document("nanos")))
        source.advance(60_000)
        document = source.checkpoint().document()
        source.close()
        del document["digest"]
        document["state"]["log"][0] = [0, 2, 1]  # stamped before the capture
        document["digest"] = stable_digest(
            json.dumps(document, sort_keys=True, separators=(",", ":"))
        )
        config = ServerConfig(port=0, http_port=None, max_sessions=1)

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "restore", "id": "forged", "snapshot": document})
            rejected = await client.recv()
            await client.send({"type": "open", "id": "next", "request": _request_document()})
            accepted = await client.recv()
            await client.close()
            return rejected, accepted, server.metrics.snapshot()

        rejected, accepted, metrics = run_with_server(scenario, config)
        assert rejected["type"] == "rejected"
        assert rejected["code"] == REJECT_BAD_REQUEST
        assert metrics["snapshots"]["sessions_restored"] == 0
        assert accepted["type"] == "accepted"  # the slot came back

    def test_restore_rejects_garbage_and_duplicate_ids(self):
        document = _request_document()

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "restore", "snapshot": {"format": "junk"}})
            garbage = await client.recv()
            await client.send({"type": "open", "id": "held", "request": document})
            assert (await client.recv())["type"] == "accepted"
            await client.send(
                {"type": "restore", "id": "held", "snapshot": {"format": "junk"}}
            )
            duplicate = await client.recv()
            await client.close()
            return garbage, duplicate

        garbage, duplicate = run_with_server(scenario)
        assert garbage["type"] == "rejected"
        assert garbage["code"] == REJECT_BAD_REQUEST
        assert duplicate["type"] == "rejected"
        assert duplicate["code"] == REJECT_DUPLICATE_SESSION

    def test_idle_eviction_checkpoints_to_disk(self, tmp_path):
        # With a checkpoint_dir configured, the idle sweeper saves the
        # session before evicting it, names the file in the eviction
        # notice, and the on-disk document restores to a working session.
        from repro.sim.snapshot import load_snapshot, restore

        directory = tmp_path / "checkpoints"
        config = ServerConfig(
            port=0, http_port=None, idle_timeout=0.05, checkpoint_dir=directory
        )
        document = _request_document()
        batch = simulate_request(_typed_request(document))

        async def scenario(server):
            client = await Client.connect(server)
            await client.send({"type": "open", "id": "idler", "request": document})
            assert (await client.recv())["type"] == "accepted"
            evicted = await asyncio.wait_for(client.recv(), timeout=5.0)
            await client.close()
            return evicted, server.metrics.snapshot()

        evicted, metrics = run_with_server(scenario, config)
        assert evicted["type"] == "evicted"
        path = evicted["checkpoint"]
        assert path == str(directory / "idler.json")
        assert metrics["snapshots"]["checkpoints_taken"] == 1
        snapshot = load_snapshot(path)
        assert snapshot.kind == "initial"
        session = restore(snapshot)
        while True:
            if session.advance(100_000).finished:
                break
        assert session.result() == batch


class TestHTTPAdapter:
    @staticmethod
    async def _http(server, payload: bytes):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.http_port)
        writer.write(payload)
        await writer.drain()
        data = await reader.read()
        writer.close()
        return data

    def test_metrics_healthz_and_404(self):
        async def scenario(server):
            health = await self._http(server, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            metrics = await self._http(server, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            missing = await self._http(server, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
            return health, metrics, missing

        health, metrics, missing = run_with_server(scenario)
        assert health.startswith(b"HTTP/1.1 200")
        assert json.loads(health.split(b"\r\n\r\n", 1)[1])["status"] == "ok"
        body = json.loads(metrics.split(b"\r\n\r\n", 1)[1])
        assert "sessions" in body and "cache" in body
        assert missing.startswith(b"HTTP/1.1 404")

    def test_post_simulate_streams_sse(self):
        document = _request_document()
        batch = simulate_request(_typed_request(document))

        async def scenario(server):
            body = json.dumps(document).encode()
            payload = (
                b"POST /simulate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            return await self._http(server, payload)

        raw = run_with_server(scenario)
        head, _, stream = raw.partition(b"\r\n\r\n")
        assert b"text/event-stream" in head
        events = []
        result_frame = None
        for block in stream.decode().split("\n\n"):
            if not block.strip():
                continue
            lines = dict(
                line.split(": ", 1) for line in block.splitlines() if ": " in line
            )
            frame = json.loads(lines["data"])
            if frame["type"] == "events":
                events.extend(frame["events"])
            elif frame["type"] == "result":
                result_frame = frame
        assert result_frame is not None
        assert result_from_document(result_frame["result"]) == batch
        assert events == events_to_document(lifecycle_events(batch))

    def test_post_simulate_rejects_over_quota_with_429(self):
        config = ServerConfig(port=0, http_port=0, max_sessions=0)

        async def scenario(server):
            body = json.dumps(_request_document()).encode()
            payload = (
                b"POST /simulate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            return await self._http(server, payload)

        raw = run_with_server(scenario, config)
        assert raw.startswith(b"HTTP/1.1 429")
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["code"] == REJECT_SERVER_CAPACITY

    def test_post_simulate_rejects_bad_json_with_400(self):
        async def scenario(server):
            payload = (
                b"POST /simulate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 9\r\n\r\n{not json"
            )
            return await self._http(server, payload)

        raw = run_with_server(scenario)
        assert raw.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize(
        "payload",
        [
            b"POST /simulate HTTP/1.1\r\nHost: t\r\n"
            b'Content-Length: 16\r\n\r\n{"workload":"\xff"}',
            b"GET /healthz\xff HTTP/1.1\r\nHost: t\r\n\r\n",
        ],
        ids=["body", "request-line"],
    )
    def test_non_utf8_bytes_get_400(self, payload):
        async def scenario(server):
            return await asyncio.wait_for(self._http(server, payload), 10)

        raw = run_with_server(scenario)
        assert raw.startswith(b"HTTP/1.1 400")
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["code"] == REJECT_BAD_REQUEST

    @pytest.mark.parametrize(
        "declared", [b"abc", b"-5", str(_READ_LIMIT + 1).encode()]
    )
    def test_post_simulate_rejects_bad_content_length_before_reading(self, declared):
        async def scenario(server):
            # No body follows: the answer must come from the header alone.
            payload = (
                b"POST /simulate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + declared + b"\r\n\r\n"
            )
            return await asyncio.wait_for(self._http(server, payload), 10)

        raw = run_with_server(scenario)
        assert raw.startswith(b"HTTP/1.1 400")
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["code"] == REJECT_BAD_REQUEST
