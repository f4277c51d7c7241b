#!/usr/bin/env python3
"""Stdlib smoke client of the simulation service.

Drives a real ``picos-experiment serve`` process (or two) over its NDJSON
TCP protocol and HTTP adapter using nothing but the standard library --
the exact exercise the CI ``service-smoke`` job runs:

* ``--spawn`` launches a server subprocess on ephemeral ports (parsed from
  its ``serving <proto> on <host>:<port>`` announce lines), runs one
  simulation request end to end -- once with a slice cap, once with the
  server's work-sized slices -- checks the streamed lifecycle events
  against the final result's own event derivation and across the two
  runs, round-trips a ``checkpoint`` frame through ``restore``/``run``
  and checks the resumed run reproduces the straight run's result and
  event stream bit-exactly, polls ``/metrics`` and ``/healthz``, and
  shuts the server down with SIGTERM.
* ``--spawn --cache-dir DIR`` additionally launches a *second* server
  process pointed at the same cache directory and asserts the identical
  request is served from cache there (the cross-process shared-cache
  contract), with the hit visible in the second server's metrics.
* Without ``--spawn``, connects to an already-running server at
  ``--host``/``--port`` and runs the single-request exercise.

Exit status 0 means every check passed.

Usage::

    python tools/service_client.py --spawn
    python tools/service_client.py --spawn --cache-dir /tmp/picos-svc-cache
    python tools/service_client.py --host 127.0.0.1 --port 9178
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

#: The smoke request: small enough for seconds-scale runs, rich enough to
#: stream a few hundred lifecycle events.
SMOKE_REQUEST: Dict[str, Any] = {
    "workload": "cholesky",
    "block_size": 128,
    "problem_size": 1024,
    "backend": "hil-full",
    "workers": 2,
    "stream": {"slice_cycles": 100_000},
}

ANNOUNCE_PREFIX = "serving "
SERVER_START_TIMEOUT = 60.0
FRAME_TIMEOUT = 120.0


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


# ----------------------------------------------------------------------
# NDJSON client
# ----------------------------------------------------------------------
class ServiceClient:
    """A minimal blocking NDJSON client (one socket, one line at a time)."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=FRAME_TIMEOUT)
        self._file = self._sock.makefile("rb")
        hello = self.recv()
        check(hello.get("type") == "hello", f"expected hello, got {hello}")

    def send(self, frame: Dict[str, Any]) -> None:
        line = json.dumps(frame, separators=(",", ":")).encode() + b"\n"
        self._sock.sendall(line)

    def recv(self) -> Dict[str, Any]:
        line = self._file.readline()
        check(bool(line), "server closed the connection mid-conversation")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.send({"type": "bye"})
        except OSError:
            pass
        self._file.close()
        self._sock.close()


def run_request(
    host: str, port: int, request: Dict[str, Any]
) -> Tuple[Dict[str, Any], List[List[int]], bool, int]:
    """Open/run one request.

    Returns (result, streamed events, cached, number of ``events`` frames).
    """
    client = ServiceClient(host, port)
    try:
        client.send({"type": "open", "id": "smoke", "request": request})
        accepted = client.recv()
        check(
            accepted.get("type") == "accepted",
            f"request was not accepted: {accepted}",
        )
        client.send({"type": "run", "id": "smoke"})
        events: List[List[int]] = []
        frames = 0
        while True:
            frame = client.recv()
            kind = frame.get("type")
            if kind == "events":
                events.extend(frame["events"])
                frames += 1
            elif kind == "result":
                return frame["result"], events, bool(frame.get("cached")), frames
            else:
                raise SmokeFailure(f"unexpected frame while streaming: {frame}")
    finally:
        client.close()


def expected_events(result: Dict[str, Any]) -> List[List[int]]:
    """Re-derive the lifecycle-event stream from a result document.

    Mirrors ``repro.sim.session.lifecycle_events`` (submitted=0, ready=1,
    retired=2, ordered by cycle then kind then task id) without importing
    the package -- the point of this client is to trust only the wire.
    """
    events: List[List[int]] = []
    for task_id, stamps in result["timelines"].items():
        created, submitted, ready, started, finished = stamps
        events.append([submitted, 0, int(task_id)])
        events.append([ready, 1, int(task_id)])
        events.append([finished, 2, int(task_id)])
    events.sort()
    return events


def fetch_json(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


# ----------------------------------------------------------------------
# server subprocess management
# ----------------------------------------------------------------------
class ServerProcess:
    """A ``picos-experiment serve`` child on ephemeral ports."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        command = [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--port",
            "0",
            "--http-port",
            "0",
        ]
        if cache_dir:
            command += ["--cache-dir", cache_dir]
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.tcp_port: Optional[int] = None
        self.http_port: Optional[int] = None
        deadline = time.time() + SERVER_START_TIMEOUT
        assert self.process.stdout is not None
        while time.time() < deadline and (
            self.tcp_port is None or self.http_port is None
        ):
            line = self.process.stdout.readline()
            if not line:
                break
            line = line.strip()
            if line.startswith(ANNOUNCE_PREFIX):
                _, proto, _, endpoint = line.split(None, 3)
                port = int(endpoint.rsplit(":", 1)[1])
                if proto == "ndjson":
                    self.tcp_port = port
                elif proto == "http":
                    self.http_port = port
        check(
            self.tcp_port is not None and self.http_port is not None,
            "server did not announce its listening ports in time",
        )

    def stop(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait(timeout=10)


# ----------------------------------------------------------------------
# the smoke scenarios
# ----------------------------------------------------------------------
def exercise_server(host: str, tcp_port: int, http_port: Optional[int]) -> None:
    """One full request with stream/result cross-check plus the HTTP surface.

    The request runs twice: with its 100 000-cycle slice cap, and without
    ``stream`` options, so the server sizes each slice by the events the
    last one returned.  Both must stream the same events and result.
    """
    result, events, cached, frames = run_request(host, tcp_port, SMOKE_REQUEST)
    check(result["num_tasks"] > 0, "result reports zero tasks")
    check(result["makespan"] > 0, "result reports zero makespan")
    check(not cached, "first request must not be served from cache")
    check(
        events == expected_events(result),
        "streamed lifecycle events do not match the result's timelines",
    )
    unbounded = {key: value for key, value in SMOKE_REQUEST.items() if key != "stream"}
    sized_result, sized_events, sized_cached, sized_frames = run_request(
        host, tcp_port, unbounded
    )
    check(not sized_cached, "the work-sized request must not be served from cache")
    check(
        sized_result == result,
        "the work-sized run's result differs from the capped run's",
    )
    check(
        sized_events == events,
        "the work-sized run's event stream differs from the capped run's",
    )
    print(
        f"ok: {len(events)} events streamed, makespan {result['makespan']}, "
        f"{result['num_tasks']} tasks; events frames: {frames} capped, "
        f"{sized_frames} sized by work"
    )
    exercise_checkpoint_restore(host, tcp_port, result, events)
    if http_port is not None:
        health = fetch_json(f"http://{host}:{http_port}/healthz")
        check(health.get("status") == "ok", f"healthz not ok: {health}")
        metrics = fetch_json(f"http://{host}:{http_port}/metrics")
        check(
            metrics["sessions"]["completed"] >= 1,
            f"metrics do not show a completed session: {metrics['sessions']}",
        )
        check(
            metrics["streaming"]["events_streamed"] >= len(events),
            "metrics undercount streamed events",
        )
        print(
            f"ok: metrics report {metrics['sessions']['completed']} completed "
            f"session(s), {metrics['streaming']['events_streamed']} events"
        )


def exercise_checkpoint_restore(
    host: str,
    tcp_port: int,
    straight_result: Dict[str, Any],
    straight_events: List[List[int]],
) -> None:
    """Checkpoint a fresh session, restore the document, run it to the end.

    The resumed run must reproduce the straight run bit-exactly -- same
    result document, same streamed event stream -- judging both purely by
    what crossed the wire.
    """
    client = ServiceClient(host, tcp_port)
    try:
        client.send({"type": "open", "id": "ckpt-src", "request": SMOKE_REQUEST})
        accepted = client.recv()
        check(
            accepted.get("type") == "accepted",
            f"checkpoint source was not accepted: {accepted}",
        )
        client.send({"type": "checkpoint", "id": "ckpt-src"})
        checkpoint = client.recv()
        check(
            checkpoint.get("type") == "checkpoint",
            f"checkpoint frame was refused: {checkpoint}",
        )
        check(
            checkpoint.get("kind") == "initial",
            f"fresh session checkpointed as {checkpoint.get('kind')!r}",
        )
        check(
            checkpoint.get("digest") == checkpoint["snapshot"].get("digest"),
            "checkpoint digest does not match its snapshot document",
        )
        client.send({"type": "cancel", "id": "ckpt-src"})
        cancelled = client.recv()
        check(
            cancelled.get("type") == "cancelled",
            f"could not cancel the checkpoint source: {cancelled}",
        )
        client.send(
            {"type": "restore", "id": "ckpt-dst", "snapshot": checkpoint["snapshot"]}
        )
        restored = client.recv()
        check(
            restored.get("type") == "restored",
            f"snapshot document was not restored: {restored}",
        )
        client.send({"type": "run", "id": "ckpt-dst"})
        events: List[List[int]] = []
        while True:
            frame = client.recv()
            kind = frame.get("type")
            if kind == "events":
                events.extend(frame["events"])
            elif kind == "result":
                result = frame["result"]
                break
            else:
                raise SmokeFailure(f"unexpected frame while resuming: {frame}")
        check(
            result == straight_result,
            "restored run's result differs from the straight run",
        )
        check(
            events == straight_events,
            "restored run's event stream differs from the straight run",
        )
        print(
            "ok: checkpoint/restore round trip reproduced the run bit-exactly "
            f"(snapshot digest {checkpoint['digest']})"
        )
    finally:
        client.close()


def exercise_shared_cache(host: str, cache_dir: str) -> None:
    """Two server processes, one cache directory: the second serves a hit."""
    first = ServerProcess(cache_dir=cache_dir)
    try:
        result_a, events_a, cached_a, _ = run_request(
            host, first.tcp_port, SMOKE_REQUEST
        )
        check(not cached_a, "first process's first request must miss the cache")
    finally:
        check(first.stop() == 0, "first server did not exit cleanly on SIGTERM")
    # The write-behind is awaited during shutdown, so by now the entry is
    # durable; a *different* process must serve it without simulating.
    second = ServerProcess(cache_dir=cache_dir)
    try:
        result_b, events_b, cached_b, _ = run_request(
            host, second.tcp_port, SMOKE_REQUEST
        )
        check(cached_b, "second process did not serve the request from cache")
        check(result_a == result_b, "cached result differs from the computed one")
        check(events_a == events_b, "cached event stream differs from the live one")
        metrics = fetch_json(f"http://{host}:{second.http_port}/metrics")
        check(
            metrics["cache"]["hits"] >= 1,
            f"second process's metrics show no cache hit: {metrics['cache']}",
        )
        print(
            f"ok: cross-process cache hit (hits={metrics['cache']['hits']}, "
            f"identical result and {len(events_b)}-event stream)"
        )
    finally:
        check(second.stop() == 0, "second server did not exit cleanly on SIGTERM")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9178, help="NDJSON TCP port")
    parser.add_argument(
        "--http-port", type=int, default=None, help="HTTP adapter port (optional)"
    )
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="launch a serve subprocess on ephemeral ports instead of "
        "connecting to --host/--port",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="with --spawn: also run the two-process shared-cache scenario "
        "against this cache directory",
    )
    args = parser.parse_args(argv)
    try:
        if args.spawn:
            server = ServerProcess()
            try:
                exercise_server(args.host, server.tcp_port, server.http_port)
            finally:
                check(server.stop() == 0, "server did not exit cleanly on SIGTERM")
            print("ok: server drained and exited 0 on SIGTERM")
            if args.cache_dir:
                exercise_shared_cache(args.host, args.cache_dir)
        else:
            exercise_server(args.host, args.port, args.http_port)
    except SmokeFailure as failure:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
