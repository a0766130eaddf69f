"""Stateful protocol fuzzing of a real LearnerServer session.

Each run opens one session on a one-slot server and sends a random sequence of
valid and invalid requests, pipelined: responses are read in batches, so the
server must answer every request exactly once and in order. The expected
answer to each request comes from the in-process learner and from the
protocol's rules: a fitted model's id is the content id of the same fit done
locally. The same session also runs on a three-slot server beside an idle
peer and a peer that trickles a frame, both of which the server drops.
"""

import json
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from cpslearn import Dataset, fit_linear
from cpslearn import remote
from cpslearn.errors import PipelineError
from cpslearn.remote import LearnerServer
from conftest import read_frame

SERVER_FRAME = 1_000_000  # the frame limit, remote.MAX_FRAME, while this module runs
small_floats = st.floats(-1e3, 1e3)
NAMES = ("a", "b", "c")


def bits(*patterns: int) -> bytes:
    return b"".join(p.to_bytes(8, "little") for p in patterns)


# Values a second column "b" sends beside one row of a good column "a": bodies short of a
# whole row or past it by a wrong multiple of 8, and NaN and infinity bit patterns.
# Their lengths fit no whole number of rows, in a fit of three columns or a predict of two.
BAD_VALUES = [
    b"", bytes(3), bytes(7), bytes(9), bytes(16), bytes(48),
    bits(0x7FF8000000000000), bits(0x7FF0000000000001), bits(0xFFF8000000000000),
    bits(0x7FF0000000000000), bits(0xFFF0000000000000),
]
# Values of "body" that declare no body: not a non-negative JSON integer, or not JSON at all.
BAD_BODY_FIELDS = [b"-8", b"1.5", b"8.0", b'"8"', b"true", b"null", b"[8]", b"1e400", b"NaN", b"-Infinity"]
# Column lists beside a good body: empty, repeated or non-string names, and columns inside
# the header as protocol version 2 sent them.
BAD_NAMES = [[], [""], ["a", "a"], ["a", 1], "a", None, {"a": "AAAAAAAA8D8="}]
DEEP = 50_000  # nesting far past the recursion limit, which Hypothesis itself raises while it runs
UNFITTED = "linear-000000000000"  # shaped like a content id, of no model a run fits


class ProtocolMachine(RuleBasedStateMachine):
    server: LearnerServer  # one server with one session slot, shared by every run
    errors: list  # exceptions escaping any thread, the server's session handlers included

    def __init__(self):
        super().__init__()
        self.sock = socket.create_connection(self.server.address, timeout=5.0)
        self.reader = self.sock.makefile("rb")
        self.models = []  # the in-process twin of each model the server holds, fitted in order
        self.pending = []  # one check per request whose response is not read yet
        self.half_closed = False

    # -- plumbing -------------------------------------------------------------

    def send(self, message, check) -> None:
        """Send one request: a complete frame, a header line without its LF, or a payload for ``_encode``."""
        if isinstance(message, dict):
            message = remote._encode(message)
        elif b"\n" not in message:
            message += b"\n"
        self.sock.sendall(message)
        self.pending.append(check)

    def read_pending(self) -> None:
        while self.pending:
            message = read_frame(self.reader)
            assert b"\n" in message, f"session ended with {len(self.pending)} requests unanswered"
            line, _, body = message.partition(b"\n")
            header = json.loads(line)
            assert len(body) == header.get("body", 0), "a response cut short"
            self.pending.pop(0)(header, body)

    @staticmethod
    def expect_error(response, body) -> None:
        assert response["kind"] == "error" and body == b"", response

    # -- valid requests -------------------------------------------------------

    @initialize()
    def first_hello(self):
        self.hello(None)

    @precondition(lambda self: not self.half_closed)
    @rule(max_frame=st.one_of(st.none(), st.integers(-5, 2 * SERVER_FRAME), st.sampled_from(["12", 1.5, True])))
    def hello(self, max_frame):
        """Earlier version-3 clients offer a frame limit in their hello; the server ignores it."""
        message = {"kind": "hello", "version": 3}
        if max_frame is not None:
            message["max_frame"] = max_frame
        expected = {"kind": "hello_ack", "version": 3}
        self.send(message, lambda response, body: self.assert_equal(response, expected))

    @staticmethod
    def assert_equal(response, expected) -> None:
        assert response == expected

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data(), rows=st.integers(0, 8), width=st.integers(1, 3))
    def fit(self, data, rows, width):
        column = st.lists(small_floats, min_size=rows, max_size=rows, unique=True)  # mostly full rank
        inputs = Dataset([(name, data.draw(column)) for name in NAMES[:width]])
        outputs = Dataset({"y": data.draw(column)})
        message = {"kind": "fit", "inputs": inputs, "outputs": outputs}
        try:
            local = fit_linear(inputs, outputs)
        except PipelineError:  # too few rows, or rank deficient: the server refuses them too
            self.send(message, self.expect_error)
            return
        self.models.append(local)
        expected = {"kind": "fit_ack", "model": local.model_id}
        self.send(message, lambda response, body: self.assert_equal(response, expected))

    @precondition(lambda self: self.models and not self.half_closed)
    @rule(data=st.data(), rows=st.integers(0, 5))
    def predict(self, data, rows):
        index = data.draw(st.integers(0, len(self.models) - 1))
        local = self.models[index]
        column = st.lists(small_floats, min_size=rows, max_size=rows)
        probe = Dataset([(name, data.draw(column)) for name in local.input_columns])
        expected = local.predict(probe).column("y").tobytes()

        def check(response, body):
            assert response == {"kind": "prediction", "outputs": ["y"], "body": len(expected)}
            assert body == expected

        self.send({"kind": "predict", "model": local.model_id, "inputs": probe}, check)

    @precondition(lambda self: self.models and not self.half_closed)
    @rule(data=st.data())
    def save(self, data):
        local = self.models[data.draw(st.integers(0, len(self.models) - 1))]
        expected = json.loads(json.dumps(local.to_dict()))

        def check(response, body):
            assert response == {"kind": "saved", "model": local.model_id, "data": expected}

        self.send({"kind": "save", "model": local.model_id}, check)

    # -- invalid requests -----------------------------------------------------

    def newest_id(self) -> str:
        """The id of the newest model, or of none the server holds."""
        return self.models[-1].model_id if self.models else UNFITTED

    def columns_header(self, in_fit: bool, names) -> dict:
        """A fit, or a predict of the newest model, naming ``names`` as its inputs."""
        if in_fit:
            return {"kind": "fit", "inputs": names, "outputs": ["y"]}
        return {"kind": "predict", "model": self.newest_id(), "inputs": names}

    def columns_frame(self, in_fit: bool, names, body: bytes) -> bytes:
        return json.dumps({**self.columns_header(in_fit, names), "body": len(body)}).encode() + b"\n" + body

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data(), in_fit=st.booleans())
    def bad_values(self, data, in_fit):
        """Column "b" beside one row of "a" (and of "y" in a fit) holds a bad body or value."""
        body = struct.pack("<d", 1.5) + data.draw(st.sampled_from(BAD_VALUES))
        if in_fit:
            body += struct.pack("<d", 1.0)
        self.send(self.columns_frame(in_fit, ["a", "b"], body), self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data(), in_fit=st.booleans())
    def bad_names(self, data, in_fit):
        body = struct.pack("<2d", 1.5, 1.0)
        self.send(self.columns_frame(in_fit, data.draw(st.sampled_from(BAD_NAMES)), body), self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(value=st.sampled_from([None, *BAD_BODY_FIELDS]), in_fit=st.booleans())
    def bad_body_field(self, value, in_fit):
        """A missing ``body``, or one that declares none: no bytes follow the header."""
        header = json.dumps(self.columns_header(in_fit, ["a"])).encode()
        self.send(header if value is None else header[:-1] + b',"body":' + value + b"}", self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(kind=st.sampled_from([b'"hello","version":3', b'"save","model":NEWEST', b'"shutdown"', b'"dance"']),
          size=st.integers(0, 24))
    def body_without_columns(self, kind, size):
        """A body on a kind that carries no columns is read whole, then refused; a shutdown does not happen."""
        kind = kind.replace(b"NEWEST", json.dumps(self.newest_id()).encode())
        self.send(b'{"kind":' + kind + b',"body":' + str(size).encode() + b"}\n" + bytes(size), self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(line=st.sampled_from([b'{"kind":"dance"}', b'{"kind":null}', b"{}", b'{"kind":"HELLO","version":3}',
                                b'{"kind":"hello","version":1}', b'{"kind":"hello","version":1,"encodings":["json"]}',
                                b'{"kind":"hello","version":2}', b'{"kind":"hello","version":2,"max_frame":4096}',
                                b'{"kind":"hello","version":4}', b"[1]", b'"hello"', b"not json", b"",
                                b'{"kind":"fit"}', b'{"kind":"predict","model":NEWEST}']))
    def bad_request(self, line):
        self.send(line.replace(b"NEWEST", json.dumps(self.newest_id()).encode()), self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(kind=st.sampled_from(["predict", "save"]), model=st.sampled_from([UNFITTED, "m1", "", 1, None, [UNFITTED]]))
    def unknown_model(self, kind, model):
        inputs = {"inputs": Dataset({"a": [1.0]})} if kind == "predict" else {}
        self.send({"kind": kind, "model": model, **inputs}, self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data(), wrap=st.sampled_from([(b"", b""), (b'{"kind":"fit","inputs":', b"}"), (b"[1,", b"]")]))
    def deeply_nested(self, data, wrap):
        """Nesting past the decoder's recursion limit, inside the frame limit, gets one error."""
        depth = data.draw(st.integers(DEEP, (SERVER_FRAME - 64) // 2))
        head, tail = wrap
        self.send(head + b"[" * depth + b"]" * depth + tail, self.expect_malformed)

    @staticmethod
    def expect_malformed(response, body) -> None:
        assert response["kind"] == "error", response
        assert response["message"].startswith("malformed message: maximum recursion depth exceeded"), response

    @precondition(lambda self: not self.half_closed)
    @rule(declared=st.booleans())
    def oversized_frame(self, declared):
        """Past the frame limit, by a line with no LF or by the body a header declares: one
        error record, then the server ends the session."""
        if declared:
            head = b'{"kind":"fit","inputs":["a"],"outputs":["y"],"body":'
            self.sock.sendall(head + str(SERVER_FRAME - len(head)).encode() + b"}\n")
        else:
            head = b'{"kind":"hello","pad":"'
            self.sock.sendall(head + b"x" * (SERVER_FRAME + 1 - len(head)))
        expected = {"kind": "error", "message": f"frame exceeds limit of {SERVER_FRAME} bytes"}
        self.sock.shutdown(socket.SHUT_WR)  # no later rule sends
        self.half_closed = True
        self.pending.append(lambda response, body: self.assert_equal(response, expected))

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data())
    def truncated_body(self, data):
        """EOF inside a declared body: the cut-off request is no request, and gets no answer."""
        body = struct.pack("<2d", 1.5, 1.0)
        self.sock.sendall(self.columns_frame(True, ["a"], body)[:-data.draw(st.integers(1, len(body)))])
        self.sock.shutdown(socket.SHUT_WR)
        self.half_closed = True

    # -- reading and closing --------------------------------------------------

    @rule()
    def read_responses(self):
        self.read_pending()

    @precondition(lambda self: not self.half_closed)
    @rule()
    def half_close(self):
        self.sock.shutdown(socket.SHUT_WR)
        self.half_closed = True

    @invariant()
    def no_thread_errors(self):
        assert self.errors == []

    def teardown(self):
        try:
            if not self.half_closed:
                self.sock.shutdown(socket.SHUT_WR)
            self.read_pending()
            assert self.reader.readline() == b"", "a response no request asked for"
            # The slot is free again: the server takes a new session, and frees the
            # slot once more before that session's EOF, so the next run finds it free.
            probe = socket.create_connection(self.server.address, timeout=5.0)
            try:
                probe.sendall(b'{"kind":"hello","version":3}\n')
                probe.shutdown(socket.SHUT_WR)
                with probe.makefile("rb") as reader:
                    answers = reader.readlines()
            finally:
                probe.close()
            assert [json.loads(answer)["kind"] for answer in answers] == ["hello_ack"]
            assert self.errors == []
        finally:
            self.reader.close()
            self.sock.close()


@pytest.fixture(scope="module", autouse=True)
def one_slot_server():
    errors = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))
        patch.setattr(remote, "MAX_FRAME", SERVER_FRAME)
        with LearnerServer(max_sessions=1) as server:
            server._tcp.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
            ProtocolMachine.server, ProtocolMachine.errors = server, errors
            yield


TestProtocolMachine = ProtocolMachine.TestCase
TestProtocolMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)


SLOW_PEER_TIMEOUT = 0.3  # seconds: the server's read timeout beside the slow peers


def trickle(sock: socket.socket, stop: threading.Event) -> None:
    """Send a fit frame one byte per 0.1 s until the frame is sent, the server drops the peer or ``stop`` is set."""
    fit = remote._encode({"kind": "fit", "inputs": Dataset({"a": [0.0, 1.0]}), "outputs": Dataset({"y": [0.0, 1.0]})})
    for byte in fit:
        if stop.wait(0.1):
            return
        try:
            sock.sendall(bytes([byte]))
        except OSError:
            return  # the server dropped the peer


def seconds_to_eof(sock: socket.socket, opened: float) -> tuple[bytes, float]:
    """What ``sock`` receives until EOF, and how long after ``opened`` EOF came."""
    received = b""
    try:
        while chunk := sock.recv(64):
            received += chunk
    except ConnectionResetError:  # a trickled byte arrived after the server closed
        pass
    return received, time.monotonic() - opened


def test_a_session_beside_idle_and_trickling_peers_is_answered_in_order(monkeypatch):
    """The session above on a three-slot server, beside an idle peer and a peer that trickles a fit
    frame: each of its requests is answered exactly once and in order, while the server drops the
    two slow peers after its timeout without sending them a byte."""
    monkeypatch.setattr(remote._SessionHandler, "timeout", SLOW_PEER_TIMEOUT)
    errors = ProtocolMachine.errors
    stop = threading.Event()
    with LearnerServer(max_sessions=3) as server:
        server._tcp.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
        opened = time.monotonic()
        peers = [socket.create_connection(server.address, timeout=5.0) for _ in range(2)]
        trickler = threading.Thread(target=trickle, args=(peers[1], stop), daemon=True)
        trickler.start()
        try:
            machine = type("BesideSlowPeersMachine", (ProtocolMachine,), {"server": server})
            run_state_machine_as_test(machine, settings=settings(max_examples=50, stateful_step_count=30, deadline=None))
            ends = [seconds_to_eof(peer, opened) for peer in peers]
        finally:
            stop.set()
            trickler.join(timeout=5.0)
            for peer in peers:
                peer.close()
    assert [received for received, _ in ends] == [b"", b""]
    assert all(seconds >= SLOW_PEER_TIMEOUT for _, seconds in ends), ends
    assert errors == []
