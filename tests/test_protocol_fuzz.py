"""Stateful protocol fuzzing of a real LearnerServer session.

Each run opens one session on a one-slot server and sends a random sequence of
valid and invalid requests, pipelined: responses are read in batches, so the
server must answer every request exactly once and in order. The expected
answer to each request comes from the in-process learner and from the
protocol's rules.
"""

import base64
import json
import socket
import struct
import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from cpslearn import Dataset, fit_linear
from cpslearn import remote
from cpslearn.errors import PipelineError
from cpslearn.remote import LearnerServer

SERVER_FRAME = 1_000_000
small_floats = st.floats(-1e3, 1e3)
NAMES = ("a", "b", "c")


def bits(*patterns: int) -> str:
    return base64.b64encode(b"".join(p.to_bytes(8, "little") for p in patterns)).decode("ascii")


# Columns the server refuses, beside a good column named "a".
BAD_COLUMNS = [
    [1.0], None, "A", "AAAAAAAA8D8", "AAAAAAAA8D9=", "AAAAAAAA 8D8=", "AAAAAAAA-_8=",
    base64.b64encode(bytes(7)).decode(), base64.b64encode(bytes(9)).decode(),
    bits(0x7FF8000000000000), bits(0x7FF0000000000001), bits(0xFFF8000000000000),
    bits(0x7FF0000000000000), bits(0xFFF0000000000000),
    base64.b64encode(struct.pack("<2d", 1.0, 2.0)).decode(),  # two rows beside one
]
# JSON literals a double cannot hold, or that JSON forbids, sent where a column goes.
BAD_LITERALS = [b"1e400", b"9" * 400, b"NaN", b"-Infinity"]
BAD_FRAME_LIMITS = [b"0", b"-5", b'"12"', b"1.5", b"true", b"255", b"null", b"1e3"]
DEEP = 50_000  # nesting far past the recursion limit, which Hypothesis itself raises while it runs


class ProtocolMachine(RuleBasedStateMachine):
    server: LearnerServer  # one server with one session slot, shared by every run
    errors: list  # exceptions escaping any thread, the server's session handlers included

    def __init__(self):
        super().__init__()
        self.sock = socket.create_connection(self.server.address, timeout=5.0)
        self.reader = self.sock.makefile("rb")
        self.max_frame = SERVER_FRAME
        self.models = []  # the in-process twin of each model the server holds, by id m1, m2, ...
        self.pending = []  # one check per request whose response is not read yet
        self.half_closed = False

    # -- plumbing -------------------------------------------------------------

    def send(self, message, check) -> None:
        line = message if isinstance(message, bytes) else json.dumps(message).encode()
        self.sock.sendall(line + b"\n")
        self.pending.append(check)

    def wire(self, dataset: Dataset) -> dict:
        return remote._dataset_to_wire(dataset)

    def read_pending(self) -> None:
        while self.pending:
            line = self.reader.readline()
            assert line.endswith(b"\n"), f"session ended with {len(self.pending)} requests unanswered"
            self.pending.pop(0)(json.loads(line))

    @staticmethod
    def expect_error(response) -> None:
        assert response["kind"] == "error", response

    # -- valid requests -------------------------------------------------------

    @initialize()
    def first_hello(self):
        self.hello(None)

    @precondition(lambda self: not self.half_closed)
    @rule(max_frame=st.one_of(st.none(), st.integers(4096, 2 * SERVER_FRAME)))
    def hello(self, max_frame):
        message = {"kind": "hello", "version": 2}
        if max_frame is not None:
            message["max_frame"] = max_frame
        self.max_frame = min(self.max_frame, max_frame or self.max_frame)
        expected = {"kind": "hello_ack", "version": 2, "max_frame": self.max_frame}
        self.send(message, lambda response: self.assert_equal(response, expected))

    @staticmethod
    def assert_equal(response, expected) -> None:
        assert response == expected

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data(), rows=st.integers(0, 8), width=st.integers(1, 3))
    def fit(self, data, rows, width):
        column = st.lists(small_floats, min_size=rows, max_size=rows, unique=True)  # mostly full rank
        inputs = Dataset([(name, data.draw(column)) for name in NAMES[:width]])
        outputs = Dataset({"y": data.draw(column)})
        message = {"kind": "fit", "inputs": self.wire(inputs), "outputs": self.wire(outputs)}
        try:
            local = fit_linear(inputs, outputs)
        except PipelineError:  # too few rows, or rank deficient: the server refuses them too
            self.send(message, self.expect_error)
            return
        self.models.append(local)
        expected = {"kind": "fit_ack", "model": f"m{len(self.models)}"}
        self.send(message, lambda response: self.assert_equal(response, expected))

    @precondition(lambda self: self.models and not self.half_closed)
    @rule(data=st.data(), rows=st.integers(0, 5))
    def predict(self, data, rows):
        index = data.draw(st.integers(0, len(self.models) - 1))
        local = self.models[index]
        column = st.lists(small_floats, min_size=rows, max_size=rows)
        probe = Dataset([(name, data.draw(column)) for name in local.input_columns])
        expected = local.predict(probe).column("y").tobytes()

        def check(response):
            assert response["kind"] == "prediction", response
            predictions = remote._wire_to_dataset(response["outputs"])
            assert predictions.column_names == ("y",)
            assert predictions.column("y").tobytes() == expected

        self.send({"kind": "predict", "model": f"m{index + 1}", "inputs": self.wire(probe)}, check)

    @precondition(lambda self: self.models and not self.half_closed)
    @rule(data=st.data())
    def save(self, data):
        index = data.draw(st.integers(0, len(self.models) - 1))
        expected = json.loads(json.dumps(self.models[index].to_dict()))

        def check(response):
            assert response == {"kind": "saved", "model": f"m{index + 1}", "data": expected}

        self.send({"kind": "save", "model": f"m{index + 1}"}, check)

    # -- invalid requests -----------------------------------------------------

    @precondition(lambda self: not self.half_closed)
    @rule(data=st.data(), in_fit=st.booleans())
    def bad_column(self, data, in_fit):
        columns = dict(self.wire(Dataset({"a": [1.5]})), b=data.draw(st.sampled_from(BAD_COLUMNS)))
        if in_fit:
            message = {"kind": "fit", "inputs": columns, "outputs": self.wire(Dataset({"y": [1.0]}))}
        else:
            message = {"kind": "predict", "model": f"m{len(self.models)}", "inputs": columns}
        self.send(message, self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(literal=st.sampled_from(BAD_LITERALS))
    def bad_literal(self, literal):
        outputs = json.dumps(self.wire(Dataset({"y": [1.0]}))).encode()
        self.send(b'{"kind":"fit","inputs":{"a":' + literal + b'},"outputs":' + outputs + b"}", self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(value=st.sampled_from(BAD_FRAME_LIMITS))
    def bad_hello(self, value):
        """A refused hello changes nothing: later hellos expect the frame limit from before it."""
        self.send(b'{"kind":"hello","version":2,"max_frame":' + value + b"}", self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(line=st.sampled_from([b'{"kind":"dance"}', b'{"kind":null}', b"{}", b'{"kind":"HELLO","version":2}',
                                b'{"kind":"hello","version":1}', b'{"kind":"hello","version":1,"encodings":["json"]}',
                                b'{"kind":"hello","version":3}', b"[1]", b'"hello"', b"not json", b"",
                                b'{"kind":"fit"}', b'{"kind":"predict","model":"m1"}']))
    def bad_request(self, line):
        self.send(line, self.expect_error)

    @precondition(lambda self: not self.half_closed)
    @rule(kind=st.sampled_from(["predict", "save"]), model=st.sampled_from(["m999", "m0", "", 1, None, ["m1"]]))
    def unknown_model(self, kind, model):
        self.send({"kind": kind, "model": model, "inputs": self.wire(Dataset({"a": [1.0]}))}, self.expect_error)

    @precondition(lambda self: 2 * DEEP + 64 <= self.max_frame and not self.half_closed)
    @rule(data=st.data(), wrap=st.sampled_from([(b"", b""), (b'{"kind":"fit","inputs":', b"}"), (b"[1,", b"]")]))
    def deeply_nested(self, data, wrap):
        """Nesting past the decoder's recursion limit, inside the frame limit, gets one error."""
        depth = data.draw(st.integers(DEEP, (self.max_frame - 64) // 2))
        head, tail = wrap
        self.send(head + b"[" * depth + b"]" * depth + tail, self.expect_malformed)

    @staticmethod
    def expect_malformed(response) -> None:
        assert response["kind"] == "error", response
        assert response["message"].startswith("malformed message: maximum recursion depth exceeded"), response

    @precondition(lambda self: not self.half_closed)
    @rule()
    def oversized_frame(self):
        """One byte past the frame limit, with no LF: one error record, then the server ends the session."""
        head = b'{"kind":"hello","pad":"'
        expected = {"kind": "error", "message": f"frame exceeds limit of {self.max_frame} bytes"}
        self.sock.sendall(head + b"x" * (self.max_frame + 1 - len(head)))
        self.sock.shutdown(socket.SHUT_WR)  # no later rule sends
        self.half_closed = True
        self.pending.append(lambda response: self.assert_equal(response, expected))

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
                probe.sendall(b'{"kind":"hello","version":2}\n')
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
        with LearnerServer(max_sessions=1, max_frame=SERVER_FRAME) as server:
            server._tcp.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
            ProtocolMachine.server, ProtocolMachine.errors = server, errors
            yield


TestProtocolMachine = ProtocolMachine.TestCase
TestProtocolMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
