"""Tests for the service wire protocol: frames and document codecs."""

from __future__ import annotations

import json

import pytest

from tests.helpers import make_program, make_task

from repro.core.config import PicosConfig
from repro.runtime.overhead import NanosOverheadModel
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest, StreamOptions
from repro.sim.session import lifecycle_events
from repro.service.protocol import (
    ProtocolError,
    REJECT_BAD_REQUEST,
    decode_frame,
    encode_frame,
    events_to_document,
    request_from_document,
    request_to_document,
    result_from_document,
    result_to_document,
    task_from_document,
    task_to_document,
)


class TestFrames:
    def test_encode_decode_round_trip(self):
        frame = {"type": "open", "id": "s1", "request": {"backend": "perfect"}}
        line = encode_frame(frame)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_frame(line) == frame

    @pytest.mark.parametrize(
        "line",
        [
            b"{nope\n",
            b'{"type":"ping","x":"\xff"}\n',
            pytest.param(
                b'{"type":"open","x":' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
                id="nested-past-the-recursion-limit",
            ),
        ],
    )
    def test_decode_rejects_non_json(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(line)
        assert excinfo.value.code == REJECT_BAD_REQUEST

    @pytest.mark.parametrize("line", [b"[1,2]\n", b'"text"\n', b'{"type": 3}\n'])
    def test_decode_rejects_untyped_frames(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)


class TestRequestDocuments:
    def test_workload_request_round_trips(self):
        request = SimulationRequest.for_workload(
            "cholesky",
            block_size=128,
            problem_size=512,
            backend="hil-hw",
            num_workers=4,
            tenant="teamA",
            stream=StreamOptions(slice_cycles=10_000, events=False),
        )
        document = request_to_document(request)
        # The document is JSON-safe as-is.
        rebuilt = request_from_document(json.loads(json.dumps(document)))
        assert rebuilt.cache_key() == request.cache_key()
        assert rebuilt.tenant == "teamA"
        assert rebuilt.stream == request.stream
        assert rebuilt.backend == "hil-hw"

    def test_inline_program_round_trips_to_the_same_simulation(self):
        program = make_program([[(0, "out")], [(0, "in")], [(0, "in")]])
        request = SimulationRequest.for_program(
            program, backend="hil-full", num_workers=2
        )
        rebuilt = request_from_document(request_to_document(request))
        assert simulate_request(rebuilt) == simulate_request(request)

    def test_nanos_extras_round_trip(self):
        request = SimulationRequest.for_workload(
            "cholesky",
            block_size=128,
            problem_size=512,
            backend="nanos",
            overhead=NanosOverheadModel(scheduling_cycles=99),
        )
        rebuilt = request_from_document(request_to_document(request))
        assert rebuilt.overhead == request.overhead
        assert rebuilt.cache_key() == request.cache_key()

    def test_config_round_trips(self):
        request = SimulationRequest.for_workload(
            "cholesky",
            block_size=128,
            problem_size=512,
            backend="hil-full",
            config=PicosConfig(tm_entries=128),
        )
        rebuilt = request_from_document(request_to_document(request))
        assert rebuilt.config == request.config

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            request_from_document({"backend": "perfect", "warp_factor": 9})
        assert "warp_factor" in str(excinfo.value)

    def test_a_seed_is_an_unknown_field(self):
        # No backend takes a request-level seed; fault triggers carry their own.
        with pytest.raises(ProtocolError) as excinfo:
            request_from_document({"backend": "nanos", "seed": 7})
        assert excinfo.value.code == "bad-request"
        assert "unknown request field(s): seed" in str(excinfo.value)

    def test_the_retired_datapath_knob_is_an_unknown_config_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            request_from_document(
                {"backend": "hil-full", "config": {"reference_datapath": True}}
            )
        assert excinfo.value.code == "bad-request"
        assert "unknown config field(s): reference_datapath" in str(excinfo.value)

    @pytest.mark.parametrize(
        "document",
        [
            {"workers": "twelve"},
            {"policy": "sjf"},
            {"dm_design": "way-3"},
            {"config": {"no_such_knob": 1}},
            {"overhead": {"creation_base": 1, "bogus_knob": 2}},
            {"stream": {"slice_cycles": 0}},
            {"stream": {"refresh": 1}},
            {"workload": "cholesky", "tasks": []},
            "not-a-mapping",
        ],
    )
    def test_malformed_documents_raise_protocol_errors(self, document):
        with pytest.raises(ProtocolError):
            request_from_document(document)

    def test_tenant_and_stream_do_not_change_the_cache_key(self):
        base = request_from_document(
            {"workload": "cholesky", "block_size": 128, "problem_size": 512}
        )
        salted = request_from_document(
            {
                "workload": "cholesky",
                "block_size": 128,
                "problem_size": 512,
                "tenant": "teamB",
                "stream": {"slice_cycles": 5},
            }
        )
        assert base.cache_key() == salted.cache_key()


class TestTaskDocuments:
    def test_round_trip(self):
        task = make_task(7, [(16, "out"), (32, "inout")], duration=42)
        entry = task_to_document(task)
        rebuilt = task_from_document(json.loads(json.dumps(entry)))
        assert rebuilt.task_id == 7
        assert rebuilt.duration == 42
        assert [(d.address, d.direction) for d in rebuilt.dependences] == [
            (d.address, d.direction) for d in task.dependences
        ]

    @pytest.mark.parametrize(
        "entry", [[1, 2], "task", [1, 2, "deps"], [1, 2, [[3, "sideways"]]]]
    )
    def test_malformed_tasks_are_rejected(self, entry):
        with pytest.raises(ProtocolError):
            task_from_document(entry)


class TestResultDocuments:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate_request(
            SimulationRequest.for_workload(
                "cholesky",
                block_size=128,
                problem_size=512,
                backend="hil-full",
                num_workers=4,
            )
        )

    def test_full_fidelity_round_trip(self, result):
        document = json.loads(json.dumps(result_to_document(result)))
        assert result_from_document(document) == result

    def test_round_tripped_result_streams_identical_events(self, result):
        rebuilt = result_from_document(result_to_document(result))
        assert lifecycle_events(rebuilt) == lifecycle_events(result)
        assert events_to_document(lifecycle_events(rebuilt)) == events_to_document(
            lifecycle_events(result)
        )

    def test_malformed_results_are_rejected(self):
        with pytest.raises(ProtocolError):
            result_from_document({"simulator": "x"})
        with pytest.raises(ProtocolError):
            result_from_document("nope")
