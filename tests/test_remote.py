import gc
import json
import math
import re
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import Dataset, fit_linear
from cpslearn.dataset import TraceColumn
from cpslearn.learners import SchemaMismatch, ShapeMismatch
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
from conftest import StubServer, random_dataset, read_frame


@pytest.fixture
def server():
    with LearnerServer() as srv:
        yield srv


@pytest.fixture
def session(server):
    with connect(server.address, timeout=5.0) as s:
        yield s


def f64le(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def bits(*patterns: int) -> bytes:
    return b"".join(p.to_bytes(8, "little") for p in patterns)


def frame(header: dict, body: bytes | None = None) -> bytes:
    """A raw message: ``header`` as one JSON line; with a ``body``, declaring it and followed by it."""
    if body is not None:
        header = {**header, "body": len(body)}
    return json.dumps(header).encode() + b"\n" + (body or b"")


def split_frame(message: bytes) -> tuple[dict, bytes]:
    line, _, body = message.partition(b"\n")
    return json.loads(line), body


def read_headers(reader, count=None) -> list[dict]:
    """The headers of the next ``count`` messages from ``reader``, or of all of them up to EOF."""
    headers = []
    while count is None or len(headers) < count:
        message = read_frame(reader)
        if not message:
            break
        headers.append(split_frame(message)[0])
    return headers


def raw_exchange(address, messages, expect=None, timeout=5.0):
    """Send raw protocol messages over one socket; read the headers of ``expect`` responses."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        for message in messages:
            sock.sendall(message)
        return read_headers(sock.makefile("rb"), expect or len(messages))
    finally:
        sock.close()


def exchange_to_eof(address, messages, timeout=5.0):
    """Send raw protocol messages, half-close, and read the header of every response until EOF."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        for message in messages:
            sock.sendall(message)
        sock.shutdown(socket.SHUT_WR)
        return read_headers(sock.makefile("rb"))
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


HELLO = b'{"kind":"hello","version":3}\n'
HELLO_ACK = b'{"kind":"hello_ack","version":3}'
# A fit of y = 2x on three rows, the content id of its model, and a prediction from it.
FIT = frame({"kind": "fit", "inputs": ["x"], "outputs": ["y"]}, f64le(0.0, 1.0, 2.0, 0.0, 2.0, 4.0))
FIT_ID = fit_linear(Dataset({"x": [0.0, 1.0, 2.0]}), Dataset({"y": [0.0, 2.0, 4.0]})).model_id
PREDICT = frame({"kind": "predict", "model": FIT_ID, "inputs": ["x"]}, f64le(1.0))


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
        assert remote_model.model_id == local_copy.model_id == fit_linear(inputs, outputs).model_id

    def test_a_server_that_numbers_its_models_keeps_working(self):
        """Ids are opaque to the client: it names a model by, and sends back, whatever id the server gave."""
        fit = Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]})
        answers = [HELLO_ACK + b"\n", b'{"kind":"fit_ack","model":"m1"}\n',
                   frame({"kind": "prediction", "outputs": ["y"]}, f64le(1.0)),
                   frame({"kind": "saved", "model": "m1", "data": fit_linear(*fit).to_dict()})]
        sent = []

        def script(conn, reader):
            for answer in answers:
                sent.append(split_frame(read_frame(reader))[0])
                conn.sendall(answer)
            read_frame(reader)  # EOF once the client closes

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(*fit)
            model.predict(Dataset({"x": [1.0]}))
            fetched = model.fetch()
        stub._thread.join(timeout=5.0)
        assert model.model_id == "m1"
        assert fetched.model_id == fit_linear(*fit).model_id
        assert [message.get("model") for message in sent] == [None, None, "m1", "m1"]


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def finite_datasets(draw):
    rows = draw(st.integers(0, 6))
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3, unique=True))
    return Dataset([(name, draw(st.lists(finite_floats, min_size=rows, max_size=rows))) for name in names])


def column_bytes(dataset: Dataset):
    return dataset.column_names, [values.tobytes() for values in dataset.floats(dataset.column_names)]


class TestColumnEncodings:
    @settings(deadline=None, max_examples=200)
    @given(finite_datasets(), finite_datasets())
    def test_columns_round_trip_bit_exactly(self, inputs, outputs):
        if inputs.row_count != outputs.row_count:
            outputs = Dataset({"y": inputs.column(inputs.column_names[0])})
        encoded = remote._encode({"kind": "fit", "inputs": inputs, "outputs": outputs})
        decoded = remote._decode(*split_frame(encoded))
        assert [column_bytes(d) for d in decoded] == [column_bytes(inputs), column_bytes(outputs)]

    def test_body_is_little_endian_doubles_column_after_column(self):
        fit = {"kind": "fit", "inputs": Dataset({"a": [1.0, -0.0], "b": [2.0, 0.5]}),
               "outputs": Dataset({"y": [3.0, 5e-324]})}
        assert remote._encode(fit) == (
            b'{"kind":"fit","inputs":["a","b"],"outputs":["y"],"body":48}\n'
            + bits(0x3FF0000000000000, 0x8000000000000000, 0x4000000000000000, 0x3FE0000000000000,
                   0x4008000000000000, 0x0000000000000001)
        )

    @pytest.mark.parametrize("rows", [0, 1, 7, 2_500])
    @pytest.mark.parametrize("columns", [1, 2, 6])
    def test_a_fit_frame_is_its_header_line_and_8_bytes_per_value(self, rows, columns):
        rng = np.random.default_rng(rows * 10 + columns)
        inputs = random_dataset(rng, rows, columns - 1) if columns > 1 else Dataset(row_count=rows)
        fit = {"kind": "fit", "inputs": inputs, "outputs": Dataset({"y": rng.normal(size=rows)})}
        encoded = remote._encode(fit)
        header = dict(fit, inputs=list(inputs.column_names), outputs=["y"], body=8 * rows * columns)
        line = json.dumps(header, separators=(",", ":")).encode() + b"\n"
        assert encoded[:len(line)] == line
        assert len(encoded) == len(line) + 8 * rows * columns

    def test_binary_peer_gets_binary_frames(self, server):
        """The reference server's answers, byte for byte."""
        fit = frame({"kind": "fit", "inputs": ["x"], "outputs": ["y"]}, f64le(0.1, 0.7, 2.3, 1.0, 2.9, 7.1))
        model_id = fit_linear(Dataset({"x": [0.1, 0.7, 2.3]}), Dataset({"y": [1.0, 2.9, 7.1]})).model_id
        predict = frame({"kind": "predict", "model": model_id, "inputs": ["x"]}, f64le(0.5, -3.3, 1e-7))
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            reader = sock.makefile("rb")
            answers = []
            for message in [HELLO, fit, predict]:
                sock.sendall(message)
                answers.append(read_frame(reader))
        finally:
            sock.close()
        assert answers == [
            b'{"kind":"hello_ack","version":3}\n',
            b'{"kind":"fit_ack","model":"' + model_id.encode() + b'"}\n',
            b'{"kind":"prediction","outputs":["y"],"body":24}\n'
            + f64le(2.2041237113402063, -8.21649484536083, 0.8329899649484531),
        ]

    @pytest.mark.parametrize("column", [b'"json"', b"[1]", b"[]", b'["xml"]', b"null", b'{"json":1}',
                                        b'[["json"]]'])
    def test_bad_encodings_get_one_error_and_keep_the_session(self, server, column, thread_errors):
        """A column inside the header, as earlier versions sent it, is refused, whatever it holds."""
        responses = exchange_to_eof(server.address, [
            b'{"kind":"fit","inputs":{"a":' + column + b'},"outputs":{"y":"AAAAAAAA8D8="}}\n',
            HELLO,
        ])
        assert responses == [
            {"kind": "error", "message": "'inputs' must be a non-empty array of non-empty column names"},
            {"kind": "hello_ack", "version": 3},
        ]
        assert thread_errors == []

    @pytest.mark.parametrize(
        "obj, message",
        [
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": 8}, f64le(1.0)),
             "body of 8 bytes does not hold whole rows of 2 float64 columns"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": 20}, bytes(20)),
             "body of 20 bytes does not hold whole rows of 2 float64 columns"),
            (({"kind": "predict", "inputs": ["a"], "body": 7}, bytes(7)),
             "body of 7 bytes does not hold whole rows of 1 float64 columns"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": 1.5}, None),
             "'body' must be a non-negative integer, got 1.5"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": "16"}, None),
             "'body' must be a non-negative integer, got '16'"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": True}, None),
             "'body' must be a non-negative integer, got True"),
            (({"kind": "predict", "inputs": ["a"], "body": -8}, None), "'body' must be a non-negative integer, got -8"),
            (({"kind": "fit", "inputs": [""], "outputs": ["y"], "body": 16}, bytes(16)),
             "'inputs' must be a non-empty array of non-empty column names"),
            (({"kind": "fit", "inputs": ["a"], "outputs": [""], "body": 16}, bytes(16)),
             "'outputs' must be a non-empty array of non-empty column names"),
            (({"kind": "fit", "inputs": [], "outputs": ["y"], "body": 8}, bytes(8)),
             "'inputs' must be a non-empty array of non-empty column names"),
            (({"kind": "fit", "inputs": ["a", 1], "outputs": ["y"], "body": 24}, bytes(24)),
             "'inputs' must be a non-empty array of non-empty column names"),
            (({"kind": "fit", "inputs": ["a", "a"], "outputs": ["y"], "body": 24}, bytes(24)),
             "'inputs' repeats a column name: ['a', 'a']"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": 16}, bits(0x7FF8000000000000, 0)),
             "column 'a' holds NaN or an infinity"),
            (({"kind": "predict", "inputs": ["a"], "body": 16}, bits(0x3FF0000000000000, 0xFFF0000000000001)),
             "column 'a' holds NaN or an infinity"),
            (({"kind": "predict", "inputs": ["a"], "body": 16}, f64le(1.0, math.inf)),
             "column 'a' holds NaN or an infinity"),
            (({"kind": "prediction", "outputs": ["a"], "body": 8}, f64le(-math.inf)),
             "column 'a' holds NaN or an infinity"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": 16}, f64le(1.0) + bits(0xFFF8000000000000)),
             "column 'y' holds NaN or an infinity"),
            (({"kind": "fit", "inputs": ["a", "b"], "outputs": ["y"], "body": 24}, f64le(1.0, math.inf, 0.0)),
             "column 'b' holds NaN or an infinity"),
            (({"kind": "fit", "inputs": ["a"], "body": 8}, bytes(8)), "fit without 'outputs'"),
            (({"kind": "prediction", "body": 8}, bytes(8)), "prediction without 'outputs'"),
            (({"kind": "fit", "inputs": ["a"], "outputs": ["y"]}, None), "fit without 'body'"),
            (({"kind": "predict", "inputs": "a", "body": 8}, bytes(8)),
             "'inputs' must be a non-empty array of non-empty column names"),
            (({"kind": "predict", "inputs": {"a": "AAAAAAAA8D8="}}, None),
             "'inputs' must be a non-empty array of non-empty column names"),
        ],
    )
    def test_binary_refusals(self, obj, message):
        """Every refusal of a frame's columns, on either end; ``obj`` is a header and the body it declares."""
        with pytest.raises(ValueError) as info:
            remote._decode(*obj)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "request_, message",
        [
            (frame({"kind": "fit", "inputs": ["a"], "outputs": ["y"]}, f64le(1.0)),
             "body of 8 bytes does not hold whole rows of 2 float64 columns"),
            (frame({"kind": "predict", "model": FIT_ID, "inputs": ["x"]}, bytes(7)),
             "body of 7 bytes does not hold whole rows of 1 float64 columns"),
            (frame({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": 1.5}), "'body' must be a non-negative integer, got 1.5"),
            (frame({"kind": "fit", "inputs": ["a"], "outputs": ["y"], "body": True}), "'body' must be a non-negative integer, got True"),
            (frame({"kind": "predict", "model": FIT_ID, "inputs": ["x"], "body": -8}),
             "'body' must be a non-negative integer, got -8"),
            (frame({"kind": "fit", "inputs": [""], "outputs": ["y"]}, f64le(1.0, 2.0)),
             "'inputs' must be a non-empty array of non-empty column names"),
            (frame({"kind": "predict", "model": FIT_ID, "inputs": ["x", "x"]}, f64le(1.0, 2.0)),
             "'inputs' repeats a column name: ['x', 'x']"),
            (frame({"kind": "fit", "inputs": ["a"], "outputs": ["y"]}), "fit without 'body'"),
            (frame({"kind": "predict", "model": FIT_ID, "inputs": ["x"]}), "predict without 'body'"),
            (frame({"kind": "hello", "version": 3}, f64le(1.0)), "a 'hello' request carries no columns, so no 'body'"),
            (frame({"kind": "save", "model": FIT_ID}, f64le(1.0)), "a 'save' request carries no columns, so no 'body'"),
            (frame({"kind": "save", "model": FIT_ID, "body": -1}), "a 'save' request carries no columns, so no 'body'"),
            (frame({"kind": "shutdown"}, b""), "a 'shutdown' request carries no columns, so no 'body'"),
            (frame({"kind": "fit", "inputs": ["a"], "outputs": ["y"]}, f64le(1.0, 2.0) + bits(0xFFF0000000000001, 0)),
             "column 'y' holds NaN or an infinity"),
            (frame({"kind": "predict", "model": FIT_ID, "inputs": ["x"]}, f64le(1.0, -math.inf)),
             "column 'x' holds NaN or an infinity"),
        ],
        ids=lambda value: value.partition(b"\n")[0].decode() if isinstance(value, bytes) else value,
    )
    def test_malformed_frames_get_one_error_and_keep_the_session(self, server, request_, message, thread_errors):
        """The body a header declares is read first, so the request after a refused one is read intact."""
        responses = exchange_to_eof(server.address, [FIT, request_, PREDICT])
        assert responses == [
            {"kind": "fit_ack", "model": FIT_ID},
            {"kind": "error", "message": message},
            {"kind": "prediction", "outputs": ["y"], "body": 8},
        ]
        assert thread_errors == []

    def test_client_sends_binary_columns(self):
        requests = []

        def script(conn, reader):
            for response in (HELLO_ACK, b'{"kind":"fit_ack","model":"m1"}'):
                requests.append(read_frame(reader))
                conn.sendall(response + b"\n")
            read_frame(reader)

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            session.fit(Dataset({"x": [0.0, 0.5]}), Dataset({"y": [1.0, -0.0]}))
        hello, fit = requests
        assert json.loads(hello) == {"kind": "hello", "version": 3}
        assert fit == b'{"kind":"fit","inputs":["x"],"outputs":["y"],"body":32}\n' + f64le(0.0, 0.5, 1.0, -0.0)


class TestServerBehaviour:
    def test_unknown_model_id(self, server):
        responses = raw_exchange(
            server.address,
            [HELLO, frame({"kind": "predict", "model": "m99", "inputs": ["x"]}, f64le(1.0))],
        )
        assert responses[0]["kind"] == "hello_ack"
        assert responses[1] == {"kind": "error", "message": "unknown model id: 'm99'"}

    def test_malformed_line_keeps_connection_usable(self, server):
        responses = raw_exchange(
            server.address,
            [b"this is not json\n", HELLO],
        )
        assert responses[0]["kind"] == "error"
        assert responses[1]["kind"] == "hello_ack"

    def test_unknown_kind_is_error_response(self, server):
        (response,) = raw_exchange(server.address, [b'{"kind":"dance"}\n'])
        assert response["kind"] == "error"
        assert "dance" in response["message"]

    def test_pipelined_requests_answered_in_order(self, server):
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            sock.sendall(HELLO + FIT + PREDICT + PREDICT)
            reader = sock.makefile("rb")
            answers = [read_frame(reader) for _ in range(4)]
        finally:
            sock.close()
        prediction = b'{"kind":"prediction","outputs":["y"],"body":8}\n' + f64le(2.0)
        assert [split_frame(answer)[0]["kind"] for answer in answers[:2]] == ["hello_ack", "fit_ack"]
        assert answers[2:] == [prediction, prediction]

    def test_nan_on_the_wire_is_rejected(self, server):
        patterns = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000,
                    0xFFF0000000000000]  # quiet and negative NaN, a signalling NaN, +inf, -inf
        requests = [frame({"kind": "fit", "inputs": ["x"], "outputs": ["y"]}, f64le(1.0) + bits(p)) for p in patterns]
        responses = raw_exchange(server.address, [
            *requests, b'{"kind":"fit","inputs":{"x":NaN},"outputs":{"y":"AAAAAAAA8D8="}}\n', HELLO,
        ])
        assert responses[:-2] == [{"kind": "error", "message": "column 'y' holds NaN or an infinity"}] * 5
        assert [r["kind"] for r in responses[-2:]] == ["error", "hello_ack"]

    def test_deeply_nested_request_gets_one_error(self, server, thread_errors):
        depth = sys.getrecursionlimit() * 3
        nested = b'{"kind":"fit","inputs":' + b"[" * depth + b"]" * depth + b"}\n"
        responses = exchange_to_eof(server.address, [nested, HELLO])
        assert [r["kind"] for r in responses] == ["error", "hello_ack"]
        assert responses[0]["message"].startswith("malformed message")
        assert thread_errors == []

    def test_version_rejected(self, server):
        (response,) = raw_exchange(server.address, [b'{"kind":"hello","version":99}\n'])
        assert response["kind"] == "error"
        assert "version" in response["message"]

    def test_version_1_hello_is_refused(self, server, thread_errors):
        responses = exchange_to_eof(server.address, [
            b'{"kind":"hello","version":1,"encodings":["json","f64le-b64"]}\n',
            b'{"kind":"hello","version":3,"max_frame":1000}\n',
            FIT,
        ])
        assert responses == [
            {"kind": "error", "message": "unsupported protocol version: 1"},
            {"kind": "hello_ack", "version": 3},
            {"kind": "fit_ack", "model": FIT_ID},
        ]
        assert thread_errors == []

    def test_version_2_hello_and_columns_are_refused(self, server, thread_errors):
        """A version-2 peer sends base64 columns inside the header line; each of its requests gets one error."""
        responses = exchange_to_eof(server.address, [
            b'{"kind":"hello","version":2,"max_frame":1000}\n',
            b'{"kind":"fit","inputs":{"x":"AAAAAAAAAAA="},"outputs":{"y":"AAAAAAAA8D8="}}\n',
            b'{"kind":"hello","version":3,"max_frame":1000}\n',
            FIT,
        ])
        assert responses == [
            {"kind": "error", "message": "unsupported protocol version: 2"},
            {"kind": "error", "message": "'inputs' must be a non-empty array of non-empty column names"},
            {"kind": "hello_ack", "version": 3},
            {"kind": "fit_ack", "model": FIT_ID},
        ]
        assert thread_errors == []

    def test_client_maps_server_version_rejection(self, thread_errors):
        """A server that speaks only version 2 refuses the client's hello."""
        hellos = []

        def script(conn, reader):
            hellos.append(json.loads(reader.readline()))
            conn.sendall(b'{"kind":"error","message":"unsupported protocol version: 3"}\n')
            reader.readline()  # EOF: the client gave up

        stub = StubServer(script)
        with pytest.raises(VersionMismatch, match="^unsupported protocol version: 3$"):
            connect(stub.address, timeout=2.0)
        stub._thread.join(timeout=5.0)
        assert hellos == [{"kind": "hello", "version": 3}]
        assert thread_errors == []

    def test_sessions_are_isolated(self, server):
        """Equal fits get equal content ids in any session, but a session reaches only the models it fitted."""
        def rows(slope):
            return Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, slope]})

        with connect(server.address, timeout=5.0) as first, connect(server.address, timeout=5.0) as second:
            sessions = (first, second)
            assert first.fit(*rows(1.0)).model_id == second.fit(*rows(1.0)).model_id == fit_linear(*rows(1.0)).model_id
            own = [session.fit(*rows(slope)).model_id for session, slope in zip(sessions, (2.0, 3.0))]
            assert own == [fit_linear(*rows(2.0)).model_id, fit_linear(*rows(3.0)).model_id]
            for index, session in enumerate(sessions):
                other = own[1 - index]
                for request, expect in [({"kind": "predict", "model": other, "inputs": Dataset({"x": [1.0]})}, "prediction"),
                                        ({"kind": "save", "model": other}, "saved")]:
                    with pytest.raises(RemoteError, match=f"^unknown model id: '{other}'$"):
                        session._request(request, expect)
                response, _ = session._request({"kind": "save", "model": own[index]}, "saved")
                assert response["model"] == own[index]

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
            (response,) = raw_exchange(srv.address, [HELLO])
            assert response["kind"] == "hello_ack"
        assert thread_errors == []

    def test_trickling_peer_is_dropped_and_frees_its_slot(self, monkeypatch, thread_errors):
        monkeypatch.setattr(remote._SessionHandler, "timeout", 0.3)
        with LearnerServer(max_sessions=1) as srv:
            trickle = socket.create_connection(srv.address, timeout=5.0)
            try:
                reader = trickle.makefile("rb")
                for part in (b'{"kind":"hel', b'lo","version":3}\n'):  # one frame in two reads
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
                        trickle.sendall(b" ")  # each byte well inside the 0.3 s wait for the next
                    except ConnectionResetError:
                        dropped = True
                assert dropped
                assert time.perf_counter() - start >= 0.3
            finally:
                trickle.close()
            (response,) = raw_exchange(srv.address, [HELLO])
            assert response["kind"] == "hello_ack"
        assert thread_errors == []

    def test_trickling_body_is_dropped_and_frees_its_slot(self, monkeypatch, thread_errors):
        """The timeout also runs from a request's first byte to the last byte of its body."""
        monkeypatch.setattr(remote._SessionHandler, "timeout", 0.3)
        with LearnerServer(max_sessions=1) as srv:
            trickle = socket.create_connection(srv.address, timeout=5.0)
            try:
                trickle.sendall(b'{"kind":"fit","inputs":["x"],"outputs":["y"],"body":64}\n')
                trickle.settimeout(0.1)
                start = time.perf_counter()
                dropped = False
                while not dropped and time.perf_counter() - start < 4.0:
                    try:
                        dropped = trickle.recv(1) == b""
                    except TimeoutError:
                        trickle.sendall(b"\0")  # one byte of the body, well inside the 0.3 s wait for it
                    except ConnectionResetError:
                        dropped = True
                assert dropped
                assert time.perf_counter() - start >= 0.2
            finally:
                trickle.close()
            (response,) = raw_exchange(srv.address, [HELLO])
            assert response["kind"] == "hello_ack"
        assert thread_errors == []

    def test_one_timeout_ends_idle_and_trickling_peers_beside_a_working_one(self, monkeypatch, thread_errors):
        """The timeout bounds both the wait for a request and a request's arrival; a prompt client
        is served in full while the two slow peers beside it are dropped."""
        monkeypatch.setattr(remote._SessionHandler, "timeout", 0.3)

        def seconds_to_eof(sock, opened):
            try:
                while sock.recv(1):  # the server sends these peers nothing
                    pass
            except ConnectionResetError:  # a trickled byte arrived after the server closed
                pass
            return time.perf_counter() - opened

        def trickle_fit(sock):
            try:
                for byte in FIT:
                    sock.sendall(bytes([byte]))
                    time.sleep(0.1)
            except OSError:
                pass  # the server dropped the session

        with LearnerServer(max_sessions=3) as srv:
            opened = time.perf_counter()
            idle, trickle = (socket.create_connection(srv.address, timeout=5.0) for _ in range(2))
            with ThreadPoolExecutor(3) as pool:
                pool.submit(trickle_fit, trickle)
                ends = [pool.submit(seconds_to_eof, sock, opened) for sock in (idle, trickle)]
                inputs, outputs = Dataset({"x": [0.0, 1.0, 2.0]}), Dataset({"y": [1.0, 3.0, 4.0]})
                probe = Dataset({"x": [5.0]})
                with connect(srv.address, timeout=5.0) as session:
                    models = [session.fit(inputs, outputs) for _ in range(2)]
                    predictions = [model.predict(probe).column("y").tobytes() for model in models]
                    assert session._buffer == bytearray()  # no response beyond the one per request
                seconds = [end.result() for end in ends]
            idle.close()
            trickle.close()
        assert [model.model_id for model in models] == [fit_linear(inputs, outputs).model_id] * 2
        assert predictions == [fit_linear(inputs, outputs).predict(probe).column("y").tobytes()] * 2
        assert all(0.25 <= s < 1.0 for s in seconds), seconds
        assert thread_errors == []

    def test_a_fit_whose_solution_overflows_gets_one_error(self, server, thread_errors):
        overflowing = frame({"kind": "fit", "inputs": ["a"], "outputs": ["y"]},
                            f64le(0.0, 0.25, 0.5, 0.75, 1.0, -1.7e308, -1e308, 0.0, 1e308, 1.7e308))
        responses = exchange_to_eof(server.address, [overflowing, FIT, PREDICT])
        assert responses[0]["kind"] == "error"
        assert responses[0]["message"] == "1 of 2 coefficients are not finite: the solution overflows float64"
        assert responses[1:] == [{"kind": "fit_ack", "model": FIT_ID}, {"kind": "prediction", "outputs": ["y"], "body": 8}]
        assert thread_errors == []

    def test_a_declared_body_holds_only_the_bytes_that_arrived(self, thread_errors):
        """An idle peer that declares a 60 MiB body costs the server what it sent, not what it declared."""
        with LearnerServer(max_sessions=1) as srv:
            peer = socket.create_connection(srv.address, timeout=5.0)
            tracemalloc.start()
            try:
                peer.sendall(b'{"kind":"fit","inputs":["x"],"outputs":["y"],"body":62914560}\n' + bytes(4096))
                time.sleep(0.3)  # the session thread reads the header and the bytes sent, then waits
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()
                peer.close()
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
    """Each test lowers ``remote.MAX_FRAME``, which both ends read, so no frame needs 64 MiB."""

    def test_client_side_oversized_fit(self, monkeypatch):
        monkeypatch.setattr(remote, "MAX_FRAME", 100_000)
        with LearnerServer() as srv:
            with connect(srv.address, timeout=5.0) as session:
                big = Dataset({"x": np.arange(50_000, dtype=np.float64)})
                target = Dataset({"y": np.arange(50_000, dtype=np.float64)})
                with pytest.raises(FrameTooLarge):
                    session.fit(big, target)

    def test_server_side_oversized_line(self, monkeypatch):
        monkeypatch.setattr(remote, "MAX_FRAME", 1_000)
        with LearnerServer() as srv:
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
    def test_server_reads_lines_up_to_the_limit(self, extra, monkeypatch, thread_errors):
        monkeypatch.setattr(remote, "MAX_FRAME", 1_000)
        head, tail = b'{"kind":"dance","pad":"', b'"}'
        line = head + b"x" * (1_000 + extra - len(head) - len(tail)) + tail + b"\n"
        # An oversized line travels alone, so the server reads every byte before it ends the session.
        lines = [line] if extra else [line, HELLO]
        with LearnerServer() as srv:
            responses = exchange_to_eof(srv.address, lines)
        if extra:
            assert responses == [{"kind": "error", "message": "frame exceeds limit of 1000 bytes"}]
        else:
            assert responses == [
                {"kind": "error", "message": "unknown request kind: 'dance'"},
                {"kind": "hello_ack", "version": 3},
            ]
        assert thread_errors == []

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_limit", "one_byte_over"])
    def test_server_reads_bodies_up_to_the_limit(self, extra, monkeypatch, thread_errors):
        """The limit covers a header line, not counting its LF, and its body together."""
        monkeypatch.setattr(remote, "MAX_FRAME", 1_000)
        body = f64le(*range(40))
        head, tail = b'{"kind":"fit","inputs":["x"],"outputs":["y"],"body":320,"pad":"', b'"}'
        line = head + b"x" * (1_000 + extra - len(body) - len(head) - len(tail)) + tail + b"\n"
        # A frame declared past the limit ends the session before its body is read, so none is sent.
        messages = [line] if extra else [line + body, HELLO]
        with LearnerServer() as srv:
            responses = exchange_to_eof(srv.address, messages)
        if extra:
            assert responses == [{"kind": "error", "message": "frame exceeds limit of 1000 bytes"}]
        else:
            model_id = fit_linear(Dataset({"x": [*range(20)]}), Dataset({"y": [*range(20, 40)]})).model_id
            assert responses == [
                {"kind": "fit_ack", "model": model_id},
                {"kind": "hello_ack", "version": 3},
            ]
        assert thread_errors == []

    def test_a_body_declared_past_any_limit_ends_the_session(self, server, thread_errors):
        header = b'{"kind":"fit","inputs":["x"],"outputs":["y"],"body":' + b"9" * 400 + b"}\n"
        responses = exchange_to_eof(server.address, [header])
        assert responses == [{"kind": "error", "message": f"frame exceeds limit of {remote.MAX_FRAME} bytes"}]
        assert thread_errors == []

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_limit", "one_byte_over"])
    def test_client_reads_lines_up_to_the_limit(self, extra, monkeypatch):
        monkeypatch.setattr(remote, "MAX_FRAME", 1_000)
        head, tail = b'{"kind":"fit_ack","model":"', b'"}'
        ack = head + b"m" * (1_000 + extra - len(head) - len(tail)) + tail + b"\n"

        def script(conn, reader):
            try:
                for response in [HELLO_ACK + b"\n", ack]:
                    read_frame(reader)
                    conn.sendall(response)
                read_frame(reader)  # EOF once the client closes
            except OSError:
                pass

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            fit = (Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            if extra:
                with pytest.raises(FrameTooLarge, match="frame exceeds limit of 1000 bytes"):
                    session.fit(*fit)
            else:
                assert session.fit(*fit).model_id == "m" * (1_000 - len(head) - len(tail))
        stub._thread.join(timeout=5.0)

    @pytest.mark.parametrize("offer", [b"0", b'"12"', b"true", b"1000", b"1e12"])
    def test_a_max_frame_in_hello_is_ignored(self, server, offer, thread_errors):
        """Earlier version-3 clients offer a frame limit; the server acks their hello and keeps its own."""
        fit = frame({"kind": "fit", "inputs": ["x"], "outputs": ["y"]}, f64le(*range(100), *range(0, 200, 2)))
        hello = b'{"kind":"hello","version":3,"max_frame":' + offer + b"}\n"
        responses = exchange_to_eof(server.address, [hello, fit])
        model_id = fit_linear(Dataset({"x": [*range(100)]}), Dataset({"y": [*range(0, 200, 2)]})).model_id
        assert responses == [{"kind": "hello_ack", "version": 3}, {"kind": "fit_ack", "model": model_id}]
        assert thread_errors == []

    def test_a_max_frame_in_hello_ack_is_ignored(self):
        """An earlier version-3 server acks a frame limit; the client keeps its own."""
        def script(conn, reader):
            for response in [b'{"kind":"hello_ack","version":3,"max_frame":256}\n', ack]:
                read_frame(reader)
                conn.sendall(response)
            read_frame(reader)  # EOF once the client closes

        ack = b'{"kind":"fit_ack","model":"' + b"m" * 2_000 + b'"}\n'
        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            assert session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]})).model_id == "m" * 2_000
        stub._thread.join(timeout=5.0)

    def test_oversized_hello_ack_is_typed_and_closes_the_socket(self, monkeypatch):
        monkeypatch.setattr(remote, "MAX_FRAME", 256)

        def script(conn, reader):
            try:
                reader.readline()
                conn.sendall(b'{"kind":"hello_ack","version":3,"pad":"' + b"x" * 400 + b'"}\n')
                reader.readline()  # EOF once the client gives up
            except OSError:
                pass  # the client closed with the rest of the ack unread

        stub = StubServer(script)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FrameTooLarge):
                connect(stub.address, timeout=2.0)
            gc.collect()
        stub._thread.join(timeout=5.0)
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []



class TestFaultInjection:
    def test_mid_fit_disconnect_is_typed_and_fast(self):
        def script(conn, reader):
            reader.readline()  # hello
            conn.sendall(HELLO_ACK + b"\n")
            reader.readline()  # fit request arrives ...
            # ... and the server dies without answering.

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            start = time.perf_counter()
            with pytest.raises(ConnectionClosed):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0]}))
            assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "cut, error",
        [
            (b'{"kind":"fit_ack","model":"' + b"m" * 1_500 + b'"}\n', FrameTooLarge),
            (b'{"kind":"fit_ack","mo', ConnectionClosed),
            (b'{"kind":"fit_ack","model":"m1","body":1000}\n', FrameTooLarge),
            (b'{"kind":"fit_ack","model":"m1","body":16}\n' + bytes(5), ConnectionClosed),
        ],
        ids=["oversized", "truncated", "oversized_body", "truncated_body"],
    )
    def test_lost_framing_closes_the_session(self, cut, error, monkeypatch):
        """No request after an oversized or cut-off response gets the answer meant for an earlier one."""
        monkeypatch.setattr(remote, "MAX_FRAME", 1_000)
        truncated = error is ConnectionClosed
        later = [] if truncated else [b'{"kind":"fit_ack","model":"m2"}\n', b'{"kind":"fit_ack","model":"m3"}\n']
        requests = []

        def script(conn, reader):
            try:
                for response in [HELLO_ACK + b"\n", cut, *later]:
                    request = read_frame(reader)
                    if not request:
                        return
                    requests.append(request)
                    conn.sendall(response)
                conn.shutdown(socket.SHUT_WR)  # EOF, in the middle of the response if truncated
                requests.extend(iter(lambda: read_frame(reader), b""))
            except OSError:
                pass  # the client closed with the rest of a response unread

        stub = StubServer(script)
        fit = (Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
        with connect(stub.address, timeout=2.0) as session:
            with pytest.raises(error):
                session.fit(*fit)
            for _ in range(2):
                with pytest.raises(ConnectionClosed):
                    session.fit(*fit)
        stub._thread.join(timeout=5.0)
        assert [split_frame(request)[0]["kind"] for request in requests] == ["hello", "fit"]

    def test_unresponsive_server_times_out(self):
        def script(conn, reader):
            reader.readline()
            conn.sendall(HELLO_ACK + b"\n")
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

    def test_trickling_body_is_bounded_by_the_timeout(self):
        """The second timeout runs from a response's first byte to the last byte of its body."""
        def script(conn, reader):
            try:
                for response in (HELLO_ACK + b"\n", b'{"kind":"fit_ack","model":"m1"}\n'):
                    read_frame(reader)
                    conn.sendall(response)
                read_frame(reader)
                conn.sendall(b'{"kind":"prediction","outputs":["y"],"body":64}\n')
                for _ in range(64):  # one byte every 0.15 s: ~10 s in all
                    conn.sendall(b"\0")
                    time.sleep(0.15)
            except OSError:
                pass  # the client gave up and closed the connection

        stub = StubServer(script)
        with connect(stub.address, timeout=1.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                model.predict(Dataset({"x": [1.0] * 8}))
            assert time.perf_counter() - start < 2.0
            with pytest.raises(ConnectionClosed):
                model.predict(Dataset({"x": [1.0] * 8}))

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
                read_frame(reader)
                conn.sendall(response if b"\n" in response else response + b"\n")
            read_frame(reader)  # EOF once the client closes

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
        """``outputs`` names each column's values, which travel in the body."""
        columns = json.loads(outputs)
        prediction = frame({"kind": "prediction", "outputs": list(columns)},
                           b"".join(f64le(*values) for values in columns.values()))
        stub = self._answering(b'{"kind":"fit_ack","model":"m1"}', prediction)
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError) as info:
                model.predict(Dataset({"x": [1.0, 2.0, 3.0, 4.0, 5.0]}))
        assert str(info.value) == f"malformed response: expected column 'y' with 5 rows, got {got}"

    def test_undecodable_prediction_is_typed(self):
        prediction = frame({"kind": "prediction", "outputs": ["y"]}, bytes(7))
        stub = self._answering(b'{"kind":"fit_ack","model":"m1"}', prediction)
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError) as info:
                model.predict(Dataset({"x": [1.0]}))
        assert str(info.value) == "malformed response: body of 7 bytes does not hold whole rows of 1 float64 columns"

    @pytest.mark.parametrize(
        "prediction, message",
        [
            (frame({"kind": "prediction", "outputs": ["y"]}, bits(0x7FF8000000000000)),
             "column 'y' holds NaN or an infinity"),
            (frame({"kind": "prediction", "outputs": ["y"]}, f64le(-math.inf)), "column 'y' holds NaN or an infinity"),
            (frame({"kind": "prediction", "outputs": ["y"]}), "prediction without 'body'"),
            (frame({"kind": "prediction", "outputs": ["y"], "body": -8}), "'body' must be a non-negative integer, got -8"),
            (frame({"kind": "prediction", "outputs": {"y": "AAAAAAAA8D8="}}),
             "'outputs' must be a non-empty array of non-empty column names"),
            (frame({"kind": "prediction", "outputs": ["y", "y"]}, f64le(1.0, 2.0)), "'outputs' repeats a column name: ['y', 'y']"),
        ],
        ids=["nan", "-inf", "no_body", "negative_body", "version_2", "repeated"],
    )
    def test_malformed_prediction_is_one_remote_error(self, prediction, message):
        """The body is read whole first, so the session answers the next request intact."""
        good = frame({"kind": "prediction", "outputs": ["y"]}, f64le(5.0))
        stub = self._answering(b'{"kind":"fit_ack","model":"m1"}', prediction, good)
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            with pytest.raises(RemoteError) as info:
                model.predict(Dataset({"x": [1.0]}))
            assert str(info.value) == f"malformed response: {message}"
            assert model.predict(Dataset({"x": [1.0]})).column("y").tolist() == [5.0]

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
            conn.sendall(b'{"kind":"hello_ack","version":1}\n')

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

    def test_mismatched_fit_rows_are_refused_before_sending(self):
        """A frame has one row count, so the client refuses inputs and outputs that disagree, sending nothing."""
        requests = []

        def script(conn, reader):
            requests.append(read_frame(reader))
            conn.sendall(HELLO_ACK + b"\n")
            requests.append(read_frame(reader))  # EOF: no fit was sent

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            with pytest.raises(ShapeMismatch, match="^2 input rows vs 1 output rows$"):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0]}))
        stub._thread.join(timeout=5.0)
        assert [json.loads(request)["kind"] for request in requests[:1]] == ["hello"]
        assert requests[1:] == [b""]

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


class TestConnectArguments:
    @pytest.mark.parametrize("address, expected", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        ("localhost:65535", ("localhost", 65535)),
        ("::1:080", ("::1", 80)),
        (("127.0.0.1", 4464), ("127.0.0.1", 4464)),
    ], ids=str)
    def test_ports_from_0_to_65535_are_taken(self, address, expected):
        assert remote.parse_address(address) == expected

    @pytest.mark.parametrize("address", [
        "127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:8_0", "127.0.0.1: 80",
        "127.0.0.1:+80", "127.0.0.1:80 ", "127.0.0.1:\N{SUPERSCRIPT TWO}", "127.0.0.1:",
        ("127.0.0.1", 70000), ("127.0.0.1", -1), ("127.0.0.1", "80"), ("127.0.0.1", True), ("127.0.0.1", 80.0),
    ], ids=str)
    def test_other_ports_are_refused(self, address):
        with pytest.raises(ValueError, match="^port must be an integer from 0 to 65535, got "):
            remote.parse_address(address)

    def test_connect_refuses_a_port_past_65535_before_connecting(self, monkeypatch):
        """Such a port once wrapped around: '127.0.0.1:70000' reached a server on port 4464."""
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: pytest.fail("connected"))
        with pytest.raises(ValueError, match="got 70000$"):
            connect("127.0.0.1:70000")

    @pytest.mark.parametrize("port", [70000, -1])
    def test_a_server_refuses_a_port_outside_0_to_65535(self, port):
        with pytest.raises(ValueError, match=f"got {port}$"):
            LearnerServer(port=port)

    @pytest.mark.parametrize("max_sessions", [1.5, True, 0])
    def test_a_server_refuses_a_session_limit_that_is_not_a_positive_int(self, max_sessions):
        """A Semaphore(1.5) steps 1.5, 0.5, -0.5 and never reaches 0, so it would limit nothing."""
        message = f"max_sessions must be a positive integer, got {max_sessions!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LearnerServer(max_sessions=max_sessions)

    @pytest.mark.parametrize("timeout", [1e10, 0, -1.0, float("nan")])
    def test_connect_refuses_a_timeout_outside_its_range(self, monkeypatch, timeout):
        """Below it, 0 once gave a misleading ConnectFailed and -1.0 a raw socket ValueError."""
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: pytest.fail("connected"))
        message = f"timeout must be a positive number of at most 1000000.0 seconds, got {timeout!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            connect("127.0.0.1:9", timeout=timeout)

    @pytest.mark.parametrize("timeout", [True, "5", None], ids=repr)
    def test_connect_refuses_a_timeout_that_is_not_a_real_number(self, monkeypatch, timeout):
        """True once opened a session with a 1 s timeout, and "5" raised a raw TypeError."""
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: pytest.fail("connected"))
        message = f"timeout must be a positive number of at most 1000000.0 seconds, got {timeout!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            connect("127.0.0.1:9", timeout=timeout)

    def test_connect_takes_the_ceiling_itself(self, server):
        with connect(server.address, timeout=remote.MAX_TIMEOUT) as session:
            fit = Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]})
            assert session.fit(*fit).model_id == fit_linear(*fit).model_id


def docstring_shapes(section: str) -> dict[str, set]:
    """The key set of each message kind the module docstring lists under ``section``."""
    block = remote.__doc__.split(f"{section}::\n\n", 1)[1].split("\n\n", 1)[0]
    # Each placeholder, "<id>" or "{...serialized model...}", becomes a value, and "[<name>, ...]" a list.
    shapes = [json.loads(re.sub(r"<[^>]*>|\{\.\.\.[^}]*\}", "0", line).replace(", ...", ""))
              for line in block.splitlines()]
    return {shape["kind"]: set(shape) for shape in shapes}


class TestProtocolDocstring:
    """The message shapes in the ``remote`` module docstring are the frames the code sends."""

    def test_requests_match_what_the_client_sends(self):
        fitted = fit_linear(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
        answers = [HELLO_ACK + b"\n", b'{"kind":"fit_ack","model":"m1"}\n',
                   frame({"kind": "prediction", "outputs": ["y"]}, f64le(1.0)),
                   frame({"kind": "saved", "model": "m1", "data": fitted.to_dict()}), b'{"kind":"shutdown_ack"}\n']
        sent = []

        def script(conn, reader):
            for answer in answers:
                sent.append(split_frame(read_frame(reader))[0])
                conn.sendall(answer)
            read_frame(reader)  # EOF once the client closes

        stub = StubServer(script)
        with connect(stub.address, timeout=2.0) as session:
            model = session.fit(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [0.0, 1.0]}))
            model.predict(Dataset({"x": [1.0]}))
            model.fetch()
            session.shutdown_server()
        stub._thread.join(timeout=5.0)
        assert {message["kind"]: set(message) for message in sent} == docstring_shapes("Requests")

    def test_responses_match_what_the_server_sends(self):
        server = LearnerServer().start()
        try:
            received = raw_exchange(server.address, [HELLO, FIT, PREDICT, frame({"kind": "save", "model": FIT_ID}),
                                                     b'{"kind":"dance"}\n', b'{"kind":"shutdown"}\n'])
        finally:
            server.stop()
        assert {message["kind"]: set(message) for message in received} == docstring_shapes("Responses")
