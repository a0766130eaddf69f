import base64
import gc
import json
import math
import socket
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import Dataset, fit_linear
from cpslearn.dataset import TraceColumn
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
from conftest import StubServer, random_dataset


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
HELLO_ACK = b'{"kind":"hello_ack","version":2,"max_frame":100000}'


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


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def finite_datasets(draw):
    rows = draw(st.integers(0, 6))
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
    return Dataset([(name, draw(st.lists(finite_floats, min_size=rows, max_size=rows))) for name in names])


def column_bytes(dataset: Dataset):
    return dataset.column_names, [values.tobytes() for values in dataset.floats(dataset.column_names)]


def f64le(*values: float) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def f64le_bits(*patterns: int) -> str:
    return base64.b64encode(b"".join(p.to_bytes(8, "little") for p in patterns)).decode("ascii")


class TestColumnEncodings:
    @settings(deadline=None, max_examples=200)
    @given(finite_datasets())
    def test_columns_round_trip_bit_exactly(self, dataset):
        wire = json.loads(json.dumps(remote._dataset_to_wire(dataset)))
        assert column_bytes(remote._wire_to_dataset(wire)) == column_bytes(dataset)

    def test_binary_column_is_base64_of_little_endian_doubles(self):
        wire = remote._dataset_to_wire(Dataset({"a": [1.0, -0.0]}))
        assert wire == {"a": "AAAAAAAA8D8AAAAAAAAAgA=="}

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"a": [1.0]}, "column 'a' must be a base64 string"),
            ({"a": None}, "column 'a' must be a base64 string"),
            ({"a": "A"}, "column 'a' is not canonical base64"),
            ({"a": "AAAAAAAA8D8"}, "column 'a' is not canonical base64"),  # padding missing
            ({"a": "AAAAAAAA8D9="}, "column 'a' is not canonical base64"),  # padding bits set
            ({"a": "AAAAAAAA 8D8="}, "column 'a' is not canonical base64"),
            ({"a": "AAAAAAAA\n8D8="}, "column 'a' is not canonical base64"),
            ({"a": "AAAAAAAA8D8=AAAA"}, "column 'a' is not canonical base64"),
            ({"a": "AAAAAAAA8D8\u00e9"}, "column 'a' is not canonical base64"),
            ({"a": "AAAAAAAA-_8="}, "column 'a' is not canonical base64"),  # URL-safe alphabet
            ({"a": base64.b64encode(bytes(7)).decode()}, "column 'a' holds 7 bytes, not a multiple of 8"),
            ({"a": base64.b64encode(bytes(12)).decode()}, "column 'a' holds 12 bytes, not a multiple of 8"),
            ({"a": f64le_bits(0x7FF8000000000000)}, "column 'a' holds NaN or an infinity"),
            ({"a": f64le_bits(0x3FF0000000000000, 0xFFF0000000000001)}, "column 'a' holds NaN or an infinity"),
            ({"a": f64le(1.0, math.inf)}, "column 'a' holds NaN or an infinity"),
            ({"a": f64le(-math.inf)}, "column 'a' holds NaN or an infinity"),
            ({"a": f64le(1.0), "b": f64le(1.0, 2.0)}, "columns have differing lengths: [1, 2]"),
            ({}, "expected a non-empty object of base64 columns"),
            ([f64le(1.0)], "expected a non-empty object of base64 columns"),
        ],
    )
    def test_binary_refusals(self, obj, message):
        with pytest.raises(ValueError) as info:
            remote._wire_to_dataset(obj)
        assert str(info.value) == message

    def test_binary_peer_gets_binary_frames(self, server):
        """The reference server's answers, byte for byte."""
        fit = {"kind": "fit", "inputs": {"x": f64le(0.1, 0.7, 2.3)}, "outputs": {"y": f64le(1.0, 2.9, 7.1)}}
        predict = {"kind": "predict", "model": "m1", "inputs": {"x": f64le(0.5, -3.3, 1e-7)}}
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            reader = sock.makefile("rb")
            answers = []
            for message in [{"kind": "hello", "version": 2}, fit, predict]:
                sock.sendall(json.dumps(message).encode() + b"\n")
                answers.append(reader.readline())
        finally:
            sock.close()
        prediction = f64le(2.2041237113402063, -8.21649484536083, 0.8329899649484531)
        assert answers == [
            b'{"kind":"hello_ack","version":2,"max_frame":67108864}\n',
            b'{"kind":"fit_ack","model":"m1"}\n',
            b'{"kind":"prediction","outputs":{"y":"' + prediction.encode() + b'"}}\n',
        ]

    @pytest.mark.parametrize("column", [b'"json"', b"[1]", b"[]", b'["xml"]', b"null", b'{"json":1}',
                                        b'[["json"]]'])
    def test_bad_encodings_get_one_error_and_keep_the_session(self, server, column, thread_errors):
        """A column that is not base64 of float64 bytes, such as an array of JSON numbers, is refused."""
        responses = exchange_to_eof(server.address, [
            b'{"kind":"fit","inputs":{"a":' + column + b'},"outputs":{"y":"' + f64le(1.0).encode() + b'"}}\n',
            b'{"kind":"hello","version":2}\n',
        ])
        assert [r["kind"] for r in responses] == ["error", "hello_ack"]
        assert responses[0]["message"].startswith("column 'a' ")
        assert thread_errors == []

    def test_client_sends_base64_columns(self):
        requests = []

        def script(conn, reader):
            for response in (HELLO_ACK, b'{"kind":"fit_ack","model":"m1"}'):
                requests.append(json.loads(reader.readline()))
                conn.sendall(response + b"\n")
            reader.readline()

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            session.fit(Dataset({"x": [0.0, 0.5]}), Dataset({"y": [1.0, -0.0]}))
        hello, fit = requests
        assert hello == {"kind": "hello", "version": 2, "max_frame": remote.DEFAULT_MAX_FRAME}
        assert fit == {"kind": "fit", "inputs": {"x": f64le(0.0, 0.5)}, "outputs": {"y": f64le(1.0, -0.0)}}


class TestServerBehaviour:
    def test_mismatched_fit_rows_is_remote_error(self, session):
        with pytest.raises(RemoteError):
            session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0]}))

    def test_unknown_model_id(self, server):
        responses = raw_exchange(
            server.address,
            [
                b'{"kind":"hello","version":2}\n',
                b'{"kind":"predict","model":"m99","inputs":{"x":"AAAAAAAA8D8="}}\n',
            ],
        )
        assert responses[0]["kind"] == "hello_ack"
        assert responses[1] == {"kind": "error", "message": "unknown model id: 'm99'"}

    def test_malformed_line_keeps_connection_usable(self, server):
        responses = raw_exchange(
            server.address,
            [b"this is not json\n", b'{"kind":"hello","version":2}\n'],
        )
        assert responses[0]["kind"] == "error"
        assert responses[1]["kind"] == "hello_ack"

    def test_unknown_kind_is_error_response(self, server):
        (response,) = raw_exchange(server.address, [b'{"kind":"dance"}\n'])
        assert response["kind"] == "error"
        assert "dance" in response["message"]

    def test_pipelined_requests_answered_in_order(self, server):
        fit_line = json.dumps(
            {"kind": "fit", "inputs": {"x": f64le(0.0, 1.0, 2.0)}, "outputs": {"y": f64le(0.0, 2.0, 4.0)}}
        ).encode() + b"\n"
        predict_line = json.dumps(
            {"kind": "predict", "model": "m1", "inputs": {"x": f64le(1.0)}}
        ).encode() + b"\n"
        responses = raw_exchange(
            server.address,
            [b'{"kind":"hello","version":2}\n', fit_line, predict_line, predict_line],
        )
        kinds = [r["kind"] for r in responses]
        assert kinds == ["hello_ack", "fit_ack", "prediction", "prediction"]

    def test_nan_on_the_wire_is_rejected(self, server):
        (response,) = raw_exchange(
            server.address,
            [b'{"kind":"fit","inputs":{"x":NaN},"outputs":{"y":"AAAAAAAA8D8="}}\n'],
        )
        assert response["kind"] == "error"

    def test_deeply_nested_request_gets_one_error(self, server, thread_errors):
        depth = sys.getrecursionlimit() * 3
        nested = b'{"kind":"fit","inputs":' + b"[" * depth + b"]" * depth + b"}\n"
        responses = exchange_to_eof(server.address, [nested, b'{"kind":"hello","version":2}\n'])
        assert [r["kind"] for r in responses] == ["error", "hello_ack"]
        assert responses[0]["message"].startswith("malformed message")
        assert thread_errors == []

    def test_version_rejected(self, server):
        (response,) = raw_exchange(server.address, [b'{"kind":"hello","version":99}\n'])
        assert response["kind"] == "error"
        assert "version" in response["message"]

    def test_version_1_hello_is_refused(self, server, thread_errors):
        fit = {"kind": "fit", "inputs": {"x": f64le(0.0, 1.0, 2.0)}, "outputs": {"y": f64le(0.0, 2.0, 4.0)}}
        responses = exchange_to_eof(server.address, [
            b'{"kind":"hello","version":1,"encodings":["json","f64le-b64"]}\n',
            b'{"kind":"hello","version":2,"max_frame":1000}\n',
            json.dumps(fit).encode() + b"\n",
        ])
        assert responses == [
            {"kind": "error", "message": "unsupported protocol version: 1"},
            {"kind": "hello_ack", "version": 2, "max_frame": 1000},
            {"kind": "fit_ack", "model": "m1"},
        ]
        assert thread_errors == []

    def test_client_maps_server_version_rejection(self, thread_errors):
        """A server that speaks only version 1 refuses the client's hello."""
        hellos = []

        def script(conn, reader):
            hellos.append(json.loads(reader.readline()))
            conn.sendall(b'{"kind":"error","message":"unsupported protocol version: 2"}\n')
            reader.readline()  # EOF: the client gave up

        stub = StubServer(script)
        with pytest.raises(VersionMismatch, match="^unsupported protocol version: 2$"):
            connect(stub.address, timeout=2.0)
        stub._thread.join(timeout=5.0)
        assert hellos == [{"kind": "hello", "version": 2, "max_frame": remote.DEFAULT_MAX_FRAME}]
        assert thread_errors == []

    def test_sessions_are_isolated(self, server):
        with connect(server.address, timeout=5.0) as first:
            first.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with connect(server.address, timeout=5.0) as second:
                # The other session's m1 must be invisible here.
                with pytest.raises(RemoteError, match="unknown model id"):
                    second._request(
                        {"kind": "predict", "model": "m1", "inputs": {"x": f64le(1.0)}}, "prediction"
                    )

    def test_idle_peer_is_dropped_and_frees_its_slot(self, monkeypatch, thread_errors):
        monkeypatch.setattr(remote._SessionHandler, "timeout", 0.2)
        with LearnerServer(max_sessions=1) as srv:
            idle = socket.create_connection(srv.address, timeout=5.0)
            try:
                start = time.perf_counter()
                assert idle.recv(1) == b""  # EOF: the server ended the idle session
                assert time.perf_counter() - start < 4.0
            finally:
                idle.close()
            (response,) = raw_exchange(srv.address, [b'{"kind":"hello","version":2}\n'])
            assert response["kind"] == "hello_ack"
        assert thread_errors == []

    def test_trickling_peer_is_dropped_and_frees_its_slot(self, monkeypatch, thread_errors):
        monkeypatch.setattr(remote._SessionHandler, "frame_deadline", 0.3)
        with LearnerServer(max_sessions=1) as srv:
            trickle = socket.create_connection(srv.address, timeout=5.0)
            try:
                reader = trickle.makefile("rb")
                for part in (b'{"kind":"hel', b'lo","version":2}\n'):  # one frame in two reads
                    trickle.sendall(part)
                    time.sleep(0.05)
                assert json.loads(reader.readline())["kind"] == "hello_ack"
                trickle.settimeout(0.1)
                start = time.perf_counter()
                dropped = False
                while not dropped and time.perf_counter() - start < 4.0:
                    try:
                        dropped = trickle.recv(1) == b""
                    except TimeoutError:
                        trickle.sendall(b" ")  # far inside the 30 s idle limit
                    except ConnectionResetError:
                        dropped = True
                assert dropped
                assert time.perf_counter() - start >= 0.3
            finally:
                trickle.close()
            (response,) = raw_exchange(srv.address, [b'{"kind":"hello","version":2}\n'])
            assert response["kind"] == "hello_ack"
        assert thread_errors == []

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

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_limit", "one_byte_over"])
    def test_server_reads_lines_up_to_the_limit(self, extra, thread_errors):
        head, tail = b'{"kind":"dance","pad":"', b'"}'
        line = head + b"x" * (1_000 + extra - len(head) - len(tail)) + tail + b"\n"
        # An oversized line travels alone, so the server reads every byte before it ends the session.
        lines = [line] if extra else [line, b'{"kind":"hello","version":2}\n']
        with LearnerServer(max_frame=1_000) as srv:
            responses = exchange_to_eof(srv.address, lines)
        if extra:
            assert responses == [{"kind": "error", "message": "frame exceeds limit of 1000 bytes"}]
        else:
            assert responses == [
                {"kind": "error", "message": "unknown request kind: 'dance'"},
                {"kind": "hello_ack", "version": 2, "max_frame": 1_000},
            ]
        assert thread_errors == []

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_limit", "one_byte_over"])
    def test_client_reads_lines_up_to_the_limit(self, extra):
        head, tail = b'{"kind":"fit_ack","model":"', b'"}'
        ack = head + b"m" * (1_000 + extra - len(head) - len(tail)) + tail + b"\n"

        def script(conn, reader):
            try:
                for response in [b'{"kind":"hello_ack","version":2,"max_frame":1000}\n', ack]:
                    reader.readline()
                    conn.sendall(response)
                reader.readline()  # EOF once the client closes
            except OSError:
                pass

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            fit = (Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            if extra:
                with pytest.raises(FrameTooLarge, match="frame exceeds limit of 1000 bytes"):
                    session.fit(*fit)
            else:
                assert session.fit(*fit).remote_id == "m" * (1_000 - len(head) - len(tail))
        stub._thread.join(timeout=5.0)

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
                    b'{"kind":"hello","version":2,"max_frame":' + limit + b"}\n",
                    b'{"kind":"hello","version":2}\n',
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
            conn.sendall(b'{"kind":"hello_ack","version":2,"max_frame":' + limit + b"}\n")
            requests.append(reader.readline())  # EOF: the client gave up

        stub = StubServer(script)
        with pytest.raises(ConnectFailed, match="max_frame"):
            connect(stub.address, timeout=2.0, max_frame=1_000_000)
        stub._thread.join(timeout=5.0)
        assert len(requests) == 2 and requests[1] == b""
        assert json.loads(requests[0])["kind"] == "hello"
        assert thread_errors == []

    def test_oversized_hello_ack_is_typed_and_closes_the_socket(self):
        def script(conn, reader):
            try:
                reader.readline()
                conn.sendall(b'{"kind":"hello_ack","version":2,"max_frame":256,"pad":"' + b"x" * 400 + b'"}\n')
                reader.readline()  # EOF once the client gives up
            except OSError:
                pass  # the client closed with the rest of the ack unread

        stub = StubServer(script)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FrameTooLarge):
                connect(stub.address, timeout=2.0, max_frame=256)
            gc.collect()
        stub._thread.join(timeout=5.0)
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_local_frame_limits_are_checked(self):
        with pytest.raises(ValueError, match="max_frame"):
            LearnerServer(max_frame=remote.MIN_FRAME - 1)
        with pytest.raises(ValueError, match="max_frame"):
            connect(("127.0.0.1", 1), max_frame=True)


class TestFaultInjection:
    def test_mid_fit_disconnect_is_typed_and_fast(self):
        def script(conn, reader):
            reader.readline()  # hello
            conn.sendall(b'{"kind":"hello_ack","version":2,"max_frame":1000000}\n')
            reader.readline()  # fit request arrives ...
            # ... and the server dies without answering.

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            start = time.perf_counter()
            with pytest.raises(ConnectionClosed):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0]}))
            assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("truncated", [False, True], ids=["oversized", "truncated"])
    def test_lost_framing_closes_the_session(self, truncated):
        """No request after an oversized or cut-off response gets the answer meant for an earlier one."""
        cut = [b'{"kind":"fit_ack","mo'] if truncated else [b'{"kind":"fit_ack","model":"' + b"m" * 1_500 + b'"}\n']
        later = [] if truncated else [b'{"kind":"fit_ack","model":"m2"}\n', b'{"kind":"fit_ack","model":"m3"}\n']
        requests = []

        def script(conn, reader):
            try:
                for response in [b'{"kind":"hello_ack","version":2,"max_frame":1000}\n', *cut, *later]:
                    request = reader.readline()
                    if not request:
                        return
                    requests.append(request)
                    conn.sendall(response)
                conn.shutdown(socket.SHUT_WR)  # EOF, in the middle of the response if truncated
                requests.extend(iter(reader.readline, b""))
            except OSError:
                pass  # the client closed with the rest of a response unread

        stub = StubServer(script)
        fit = (Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
        with connect(stub.address, timeout=2.0) as session:
            with pytest.raises(ConnectionClosed if truncated else FrameTooLarge):
                session.fit(*fit)
            for _ in range(2):
                with pytest.raises(ConnectionClosed):
                    session.fit(*fit)
        stub._thread.join(timeout=5.0)
        assert [json.loads(request)["kind"] for request in requests] == ["hello", "fit"]

    def test_unresponsive_server_times_out(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b'{"kind":"hello_ack","version":2,"max_frame":1000000}\n')
            reader.readline()
            time.sleep(5.0)  # never answer within the client timeout

        stub = StubServer(script)
        with connect(stub.address, timeout=0.5) as session:
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0]}))
            assert time.perf_counter() - start < 3.0

    def test_trickling_response_is_bounded_by_the_timeout(self):
        def script(conn, reader):
            reader.readline()
            try:
                for byte in HELLO_ACK + b"\n":  # one byte every 0.15 s: ~8 s in all
                    conn.sendall(bytes([byte]))
                    time.sleep(0.15)
            except OSError:
                pass  # the client gave up and closed the connection

        stub = StubServer(script)
        start = time.perf_counter()
        with pytest.raises(TimeoutError):
            connect(stub.address, timeout=1.0)
        assert time.perf_counter() - start < 2.0

    def test_malformed_server_response_is_typed(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(b"garbage response\n")

        stub = StubServer(script)
        with pytest.raises(ConnectFailed):
            connect(stub.address, timeout=2.0)

    @staticmethod
    def _answering(*responses: bytes):
        """A stub that completes hello, then answers each request with the next of ``responses``."""

        def script(conn, reader):
            for response in (HELLO_ACK, *responses):
                reader.readline()
                conn.sendall(response + b"\n")
            reader.readline()  # EOF once the client closes

        return StubServer(script)

    @classmethod
    def _serve_saved(cls, saved: bytes):
        """A stub that completes hello and fit, then answers ``save`` with ``saved``."""
        return cls._answering(b'{"kind":"fit_ack","model":"m1"}', saved)

    @pytest.mark.parametrize(
        "ack, message",
        [
            (b'{"kind":"fit_ack"}', "malformed response: fit_ack 'model' must be a string, got None"),
            (b'{"kind":"fit_ack","model":7}', "malformed response: fit_ack 'model' must be a string, got 7"),
        ],
    )
    def test_malformed_fit_ack_is_typed(self, ack, message):
        stub = self._answering(ack)
        with connect(stub.address, timeout=2.0) as session:
            with pytest.raises(RemoteError) as info:
                session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
        assert str(info.value) == message

    def test_prediction_without_outputs_is_typed(self):
        stub = self._answering(b'{"kind":"fit_ack","model":"m1"}', b'{"kind":"prediction"}')
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError) as info:
                model.predict(Dataset({"x": [2.0]}))
        assert str(info.value) == "malformed response: prediction without 'outputs'"

    @pytest.mark.parametrize(
        "outputs, got",
        [
            (b'{"zzz":[1.0]}', "Dataset(1 rows; zzz: float64)"),
            (b'{"zzz":[1.0,2.0,3.0,4.0,5.0]}', "Dataset(5 rows; zzz: float64)"),
            (b'{"y":[1.0,2.0,3.0,4.0,5.0],"z":[1.0,2.0,3.0,4.0,5.0]}', "Dataset(5 rows; y: float64, z: float64)"),
            (b'{"y":[1.0,2.0,3.0,4.0]}', "Dataset(4 rows; y: float64)"),
            (b'{"y":[1.0,2.0,3.0,4.0,5.0,6.0]}', "Dataset(6 rows; y: float64)"),
        ],
    )
    def test_prediction_must_match_the_request(self, outputs, got):
        """``outputs`` names each column's values, which travel as base64."""
        wire = json.dumps({"kind": "prediction", "outputs": {
            name: f64le(*values) for name, values in json.loads(outputs).items()
        }})
        stub = self._answering(b'{"kind":"fit_ack","model":"m1"}', wire.encode())
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError) as info:
                model.predict(Dataset({"x": [1.0, 2.0, 3.0, 4.0, 5.0]}))
        assert str(info.value) == f"malformed response: expected column 'y' with 5 rows, got {got}"

    def test_undecodable_prediction_is_typed(self):
        stub = self._answering(b'{"kind":"fit_ack","model":"m1"}', b'{"kind":"prediction","outputs":{"y":"A"}}')
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError) as info:
                model.predict(Dataset({"x": [1.0]}))
        assert str(info.value) == "malformed response: column 'y' is not canonical base64"

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
            conn.sendall(b'{"kind":"hello_ack","version":1,"max_frame":1000000}\n')

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
        with pytest.raises(TraceColumn, match="^column 'x' holds traces, not float64 values$"):
            session.fit(Dataset({"x": [[1.0], [2.0]]}), Dataset({"y": [1.0, 2.0]}))


class TestLifecycle:
    def test_shutdown_request(self):
        server = LearnerServer().start()
        with connect(server.address, timeout=5.0) as session:
            session.shutdown_server()
        server.stop()
        with pytest.raises(ConnectFailed):
            connect(server.address, timeout=1.0)

    def test_serve_loop_ends_only_after_the_shutdown_ack_is_sent(self, monkeypatch):
        """Once its serve loop ends, ``cpslearn serve-learner`` exits and its daemon session
        threads die with it, so the ack must be sent before the loop is told to end."""
        events = []
        send, shutdown = remote._SessionHandler._send, remote._TcpServer.shutdown

        def slow_send(handler, payload):
            time.sleep(0.2)
            send(handler, payload)
            events.append(payload["kind"])

        def recorded_shutdown(tcp):
            events.append("shutdown")
            shutdown(tcp)

        monkeypatch.setattr(remote._SessionHandler, "_send", slow_send)
        monkeypatch.setattr(remote._TcpServer, "shutdown", recorded_shutdown)
        server = LearnerServer().start()
        with connect(server.address, timeout=5.0) as session:
            session.shutdown_server()
        deadline = time.monotonic() + 5.0
        while "shutdown" not in events and time.monotonic() < deadline:
            time.sleep(0.01)
        assert events == ["hello_ack", "shutdown_ack", "shutdown"]
        server.stop()

    def test_stop_without_start_returns_and_closes(self):
        server = LearnerServer()
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectFailed):
            connect(server.address, timeout=1.0)

    def test_stop_ends_serve_forever_on_another_thread(self):
        server = LearnerServer()
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        connect(server.address, timeout=5.0).close()  # the hello was answered: the loop serves
        server.stop()
        loop.join(timeout=5)
        assert not loop.is_alive()
        with pytest.raises(ConnectFailed):
            connect(server.address, timeout=1.0)

    def test_bind_failure(self):
        with LearnerServer() as srv:
            host, port = srv.address
            with pytest.raises(remote.BindFailed):
                LearnerServer(host=host, port=port)
