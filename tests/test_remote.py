import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from cpslearn import Dataset, fit_linear
from cpslearn.learners import SchemaMismatch
from cpslearn import remote
from cpslearn.remote import (
    ConnectFailed,
    ConnectionClosed,
    FrameTooLarge,
    LearnerServer,
    RemoteError,
    VersionMismatch,
    connect,
)
from conftest import random_dataset


@pytest.fixture
def server():
    with LearnerServer() as srv:
        yield srv


@pytest.fixture
def session(server):
    with connect(server.address, timeout=5.0) as s:
        yield s


def raw_exchange(address, lines, expect=None, timeout=5.0):
    """Send raw protocol lines over one socket; read ``expect`` responses."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        for line in lines:
            sock.sendall(line)
        reader = sock.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(expect or len(lines))]
    finally:
        sock.close()


def exchange_to_eof(address, lines, timeout=5.0):
    """Send raw protocol lines, half-close, and read every response until EOF."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        for line in lines:
            sock.sendall(line)
        sock.shutdown(socket.SHUT_WR)
        return [json.loads(line) for line in sock.makefile("rb")]
    finally:
        sock.close()


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions escaping any thread, including the server's session handlers."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))
    monkeypatch.setattr(
        remote._TcpServer, "handle_error", lambda self, request, address: errors.append(sys.exc_info()[1])
    )
    return errors


# Frame limits a peer may not set: not a JSON integer, or below MIN_FRAME.
BAD_FRAME_LIMITS = [b"0", b"-5", b'"12"', b"1.5", b"true"]


class StubServer:
    """Scriptable fake server for client-side fault injection."""

    def __init__(self, script):
        self._script = script
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        conn, _ = self._sock.accept()
        reader = conn.makefile("rb")
        try:
            self._script(conn, reader)
        finally:
            conn.close()
            self._sock.close()


class TestTransparency:
    def test_line_fit_round_trip(self, session):
        inputs = Dataset({"x": [0.0, 1.0, 2.0]})
        outputs = Dataset({"y": [1.0, 3.0, 5.0]})
        remote_model = session.fit(inputs, outputs)
        local_model = fit_linear(inputs, outputs)
        probe = Dataset({"x": [0.0, 10.0]})
        remote_pred = remote_model.predict(probe).column("y")
        local_pred = local_model.predict(probe).column("y")
        assert np.max(np.abs(remote_pred - np.array([1.0, 21.0]))) < 1e-8
        assert np.array_equal(remote_pred, local_pred)

    def test_bit_identical_on_random_datasets(self, session):
        rng = np.random.default_rng(91)
        for _ in range(5):
            n, p = int(rng.integers(10, 40)), int(rng.integers(1, 4))
            inputs = random_dataset(rng, n, p)
            outputs = Dataset({"y": rng.normal(size=n)})
            probe = random_dataset(rng, 8, p)
            remote_pred = session.fit(inputs, outputs).predict(probe).column("y")
            local_pred = fit_linear(inputs, outputs).predict(probe).column("y")
            assert np.array_equal(remote_pred, local_pred)

    def test_fetched_model_matches_remote(self, session):
        rng = np.random.default_rng(92)
        inputs = random_dataset(rng, 20, 2)
        outputs = Dataset({"y": rng.normal(size=20)})
        remote_model = session.fit(inputs, outputs)
        local_copy = remote_model.fetch()
        probe = random_dataset(rng, 6, 2)
        assert np.array_equal(
            remote_model.predict(probe).column("y"), local_copy.predict(probe).column("y")
        )


class TestServerBehaviour:
    def test_mismatched_fit_rows_is_remote_error(self, session):
        with pytest.raises(RemoteError):
            session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0]}))

    def test_unknown_model_id(self, server):
        responses = raw_exchange(
            server.address,
            [
                b'{"kind":"hello","version":1}\n',
                b'{"kind":"predict","model":"m99","inputs":{"x":[1.0]}}\n',
            ],
        )
        assert responses[0]["kind"] == "hello_ack"
        assert responses[1]["kind"] == "error"

    def test_malformed_line_keeps_connection_usable(self, server):
        responses = raw_exchange(
            server.address,
            [b"this is not json\n", b'{"kind":"hello","version":1}\n'],
        )
        assert responses[0]["kind"] == "error"
        assert responses[1]["kind"] == "hello_ack"

    def test_unknown_kind_is_error_response(self, server):
        (response,) = raw_exchange(server.address, [b'{"kind":"dance"}\n'])
        assert response["kind"] == "error"
        assert "dance" in response["message"]

    def test_pipelined_requests_answered_in_order(self, server):
        fit_line = json.dumps(
            {"kind": "fit", "inputs": {"x": [0.0, 1.0, 2.0]}, "outputs": {"y": [0.0, 2.0, 4.0]}}
        ).encode() + b"\n"
        predict_line = json.dumps(
            {"kind": "predict", "model": "m1", "inputs": {"x": [1.0]}}
        ).encode() + b"\n"
        responses = raw_exchange(
            server.address,
            [b'{"kind":"hello","version":1}\n', fit_line, predict_line, predict_line],
        )
        kinds = [r["kind"] for r in responses]
        assert kinds == ["hello_ack", "fit_ack", "prediction", "prediction"]

    @pytest.mark.parametrize(
        "column, rows",
        [
            (b'["1e3",true,2]', 3),
            (b"[true]", 1),
            (b'["1"]', 1),
            (b"[null]", 1),
            (b"[1e400]", 1),
            (b"[" + b"9" * 400 + b"]", 1),
        ],
    )
    def test_fit_accepts_only_json_numbers(self, server, column, rows, thread_errors):
        outputs = json.dumps({"y": [1.0] * rows}).encode()
        fit_line = b'{"kind":"fit","inputs":{"a":' + column + b'},"outputs":' + outputs + b"}\n"
        responses = exchange_to_eof(server.address, [fit_line, b'{"kind":"hello","version":1}\n'])
        assert [r["kind"] for r in responses] == ["error", "hello_ack"]
        assert "'a'" in responses[0]["message"]
        assert thread_errors == []

    def test_nan_on_the_wire_is_rejected(self, server):
        (response,) = raw_exchange(
            server.address,
            [b'{"kind":"fit","inputs":{"x":[NaN]},"outputs":{"y":[1.0]}}\n'],
        )
        assert response["kind"] == "error"

    def test_deeply_nested_request_gets_one_error(self, server, thread_errors):
        depth = sys.getrecursionlimit() * 3
        nested = b'{"kind":"fit","inputs":' + b"[" * depth + b"]" * depth + b"}\n"
        responses = exchange_to_eof(server.address, [nested, b'{"kind":"hello","version":1}\n'])
        assert [r["kind"] for r in responses] == ["error", "hello_ack"]
        assert responses[0]["message"].startswith("malformed message")
        assert thread_errors == []

    def test_version_rejected(self, server):
        (response,) = raw_exchange(server.address, [b'{"kind":"hello","version":99}\n'])
        assert response["kind"] == "error"
        assert "version" in response["message"]

    def test_client_maps_server_version_rejection(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b'{"kind":"error","message":"unsupported protocol version: 1"}\n')

        stub = StubServer(script)
        with pytest.raises(VersionMismatch):
            connect(stub.address, timeout=2.0)

    def test_sessions_are_isolated(self, server):
        with connect(server.address, timeout=5.0) as first:
            first.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with connect(server.address, timeout=5.0) as second:
                # The other session's m1 must be invisible here.
                with pytest.raises(RemoteError):
                    second._request(
                        {"kind": "predict", "model": "m1", "inputs": {"x": [1.0]}}
                    )

    def test_session_capacity(self):
        with LearnerServer(max_sessions=1) as srv:
            with connect(srv.address, timeout=5.0) as first:
                first.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
                with pytest.raises(ConnectFailed):
                    connect(srv.address, timeout=5.0)
            time.sleep(0.2)  # slot releases once the first session ends
            with connect(srv.address, timeout=5.0):
                pass


class TestFrameLimits:
    def test_client_side_oversized_fit(self):
        with LearnerServer(max_frame=100_000) as srv:
            with connect(srv.address, timeout=5.0, max_frame=100_000) as session:
                big = Dataset({"x": np.arange(50_000, dtype=np.float64)})
                target = Dataset({"y": np.arange(50_000, dtype=np.float64)})
                with pytest.raises(FrameTooLarge):
                    session.fit(big, target)

    def test_server_side_oversized_line(self):
        with LearnerServer(max_frame=1_000) as srv:
            sock = socket.create_connection(srv.address, timeout=5.0)
            try:
                sock.sendall(b'{"kind":"hello","padding":"' + b"a" * 5_000 + b'"}\n')
                reader = sock.makefile("rb")
                response = json.loads(reader.readline())
                assert response["kind"] == "error"
                assert "frame" in response["message"]
            finally:
                sock.close()

    def test_negotiation_takes_the_smaller_limit(self):
        with LearnerServer(max_frame=2_000) as srv:
            session = connect(srv.address, timeout=5.0, max_frame=500_000)
            try:
                assert session._max_frame == 2_000
            finally:
                session.close()

    @pytest.mark.parametrize("limit", BAD_FRAME_LIMITS)
    def test_bad_hello_max_frame_gets_one_error(self, limit, thread_errors):
        with LearnerServer(max_frame=2_000) as srv:
            responses = exchange_to_eof(
                srv.address,
                [
                    b'{"kind":"hello","version":1,"max_frame":' + limit + b"}\n",
                    b'{"kind":"hello","version":1}\n',
                ],
            )
        assert [r["kind"] for r in responses] == ["error", "hello_ack"]
        assert "max_frame" in responses[0]["message"]
        assert responses[1]["max_frame"] == 2_000  # the session kept its limit
        assert thread_errors == []

    @pytest.mark.parametrize("limit", [*BAD_FRAME_LIMITS, b"2000000"])
    def test_client_rejects_bad_negotiated_max_frame(self, limit, thread_errors):
        requests = []

        def script(conn, reader):
            requests.append(reader.readline())
            conn.sendall(b'{"kind":"hello_ack","version":1,"max_frame":' + limit + b"}\n")
            requests.append(reader.readline())  # EOF: the client gave up

        stub = StubServer(script)
        with pytest.raises(ConnectFailed, match="max_frame"):
            connect(stub.address, timeout=2.0, max_frame=1_000_000)
        stub._thread.join(timeout=5.0)
        assert len(requests) == 2 and requests[1] == b""
        assert json.loads(requests[0])["kind"] == "hello"
        assert thread_errors == []

    def test_local_frame_limits_are_checked(self):
        with pytest.raises(ValueError, match="max_frame"):
            LearnerServer(max_frame=remote.MIN_FRAME - 1)
        with pytest.raises(ValueError, match="max_frame"):
            connect(("127.0.0.1", 1), max_frame=True)


class TestFaultInjection:
    def test_mid_fit_disconnect_is_typed_and_fast(self):
        def script(conn, reader):
            reader.readline()  # hello
            conn.sendall(b'{"kind":"hello_ack","version":1,"max_frame":1000000}\n')
            reader.readline()  # fit request arrives ...
            # ... and the server dies without answering.

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            start = time.perf_counter()
            with pytest.raises(ConnectionClosed):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0]}))
            assert time.perf_counter() - start < 2.0

    def test_unresponsive_server_times_out(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b'{"kind":"hello_ack","version":1,"max_frame":1000000}\n')
            reader.readline()
            time.sleep(5.0)  # never answer within the client timeout

        stub = StubServer(script)
        with connect(stub.address, timeout=0.5) as session:
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0]}))
            assert time.perf_counter() - start < 3.0

    def test_malformed_server_response_is_typed(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b"garbage response\n")

        stub = StubServer(script)
        with pytest.raises(ConnectFailed):
            connect(stub.address, timeout=2.0)

    @staticmethod
    def _serve_saved(saved: bytes):
        """A stub that completes hello and fit, then answers ``save`` with ``saved``."""

        def script(conn, reader):
            reader.readline()
            conn.sendall(b'{"kind":"hello_ack","version":1,"max_frame":100000}\n')
            reader.readline()
            conn.sendall(b'{"kind":"fit_ack","model":"m1"}\n')
            reader.readline()
            conn.sendall(saved + b"\n")
            reader.readline()  # EOF once the client closes

        return StubServer(script)

    @pytest.mark.parametrize(
        "saved, message",
        [
            (b'{"kind":"saved","model":"m1"}', "malformed model document: must be an object"),
            (b'{"kind":"saved","model":"m1","data":{"format_version":1,"kind":"linear",'
             b'"input_schema":["x"],"output_schema":["y"],"params":{"intercept":0.0}}}',
             "malformed model document: params.weights is missing"),
        ],
    )
    def test_malformed_fetched_model_is_a_value_error(self, saved, message):
        stub = self._serve_saved(saved)
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(ValueError) as info:
                model.fetch()
        assert str(info.value) == message

    def test_deeply_nested_response_is_typed(self):
        depth = sys.getrecursionlimit() * 3
        stub = self._serve_saved(b'{"kind":"saved","data":' + b"[" * depth + b"]" * depth + b"}")
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError, match="malformed response"):
                model.fetch()

    def test_wrong_ack_version_is_version_mismatch(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b'{"kind":"hello_ack","version":2,"max_frame":1000000}\n')

        stub = StubServer(script)
        with pytest.raises(VersionMismatch):
            connect(stub.address, timeout=2.0)

    def test_predict_after_close_never_hangs(self, server):
        session = connect(server.address, timeout=5.0)
        model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
        session.close()
        with pytest.raises(ConnectionClosed):
            model.predict(Dataset({"x": [1.0]}))

    def test_connect_refused_when_nothing_listens(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # now nothing listens on this port
        with pytest.raises(ConnectFailed):
            connect(("127.0.0.1", port), timeout=1.0)


class TestClientSchema:
    def test_predict_schema_checked_client_side(self, session):
        model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
        with pytest.raises(SchemaMismatch):
            model.predict(Dataset({"wrong": [1.0]}))

    def test_non_float_columns_refused(self, session):
        with pytest.raises(ValueError):
            session.fit(Dataset({"x": [1, 2]}), Dataset({"y": [1.0, 2.0]}))


class TestLifecycle:
    def test_shutdown_request(self):
        server = LearnerServer().start()
        with connect(server.address, timeout=5.0) as session:
            session.shutdown_server()
        server.stop()
        with pytest.raises(ConnectFailed):
            connect(server.address, timeout=1.0)

    def test_bind_failure(self):
        with LearnerServer() as srv:
            host, port = srv.address
            with pytest.raises(remote.BindFailed):
                LearnerServer(host=host, port=port)
