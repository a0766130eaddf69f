"""Networked learner bridge: a TCP client and reference server.

The wire protocol is language neutral. A message is one UTF-8 JSON object on
one line, terminated by LF, followed by the binary body its ``body`` field
declares, if any. Every request receives exactly one response, in order.

Requests::

    {"kind": "hello", "version": 3}
    {"kind": "fit", "inputs": [<name>, ...], "outputs": [<name>, ...], "body": <bytes>}
    {"kind": "predict", "model": "<id>", "inputs": [<name>, ...], "body": <bytes>}
    {"kind": "save", "model": "<id>"}
    {"kind": "shutdown"}

Responses::

    {"kind": "hello_ack", "version": 3}
    {"kind": "fit_ack", "model": "<id>"}
    {"kind": "prediction", "outputs": [<name>, ...], "body": <bytes>}
    {"kind": "saved", "model": "<id>", "data": {...serialized model...}}
    {"kind": "shutdown_ack"}
    {"kind": "error", "message": "..."}

The messages that carry columns (``fit``, ``predict``, ``prediction``) name
them in their header, each field a non-empty array of column names, none
twice (a column name is a non-empty string, as in every Dataset), and declare
the length of their body. Exactly that many bytes follow the LF: each
column's little-endian IEEE 754 float64 values, column after column, inputs
before outputs. So the frame is bit-exact, and its row count is ``body / (8
* columns)``. A body that is not a multiple of that many bytes, a missing,
non-integer or negative ``body``, a ``body`` on any other kind, and NaN and
infinities are refused on both ends. A version-1 or version-2 peer, whose
columns travel inside the JSON line, is refused at hello.

Framing:

* A header that is a JSON object with an integer ``body`` of at least 0 has
  that many bytes read after its LF before any other check, so a refused
  request still gets exactly one ``error`` and the session goes on. A body
  is read as its bytes arrive, in chunks of at most 64 KiB; nothing is
  allocated for it in advance.
* The frame limit, ``MAX_FRAME`` (64 MiB), covers the header line and its
  body, on both ends. A header line or a declared body past it ends the
  session, after one ``error``. The frame-size field with which earlier
  version-3 peers negotiated the limit in ``hello`` and ``hello_ack`` is
  ignored, like any field a reader does not use.

The reference server names each model it fits by ``Model.model_id``: its
kind and 12 hex digits of the sha256 of its canonical JSON, so a remote run
reports the id of the model it saves, and equal fits get equal ids in any
session. A client treats ids as opaque strings. Registries are per session: a
session can predict with or save only the models it fitted itself.

The server ends a session whose peer sends nothing for ``DEFAULT_TIMEOUT``
seconds (30) while it waits for a request, or takes longer than that from a
request's first byte to the last byte of its body, so idle or trickling peers
cannot hold every session slot. The client bounds each response the same
way by its ``timeout``: at most that long for the first byte, and at most
that long again from the first byte to the last. It closes its session after
a timeout and after an oversized or truncated response.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Sequence

import numpy as np

from .dataset import Dataset, _names
from .errors import PipelineError
from .learners import Model, ShapeMismatch, _check_input_columns, fit_linear, model_from_dict
from .transforms import _positive, _positive_int, _setting

PROTOCOL_VERSION = 3
MAX_FRAME = 64 * 1024 * 1024  # read at call time, never bound as a default
DEFAULT_TIMEOUT = 30.0
MAX_TIMEOUT = 1e6  # seconds; far below what a socket timeout can hold
_RECV_SIZE = 64 * 1024


class ConnectFailed(PipelineError):
    """The server could not be reached or refused the session."""


class VersionMismatch(PipelineError):
    """Client and server speak incompatible protocol versions."""


class RemoteError(PipelineError):
    """The server reported an error for a request."""


class ConnectionClosed(RemoteError):
    """The connection ended before a response arrived."""


class FrameTooLarge(PipelineError):
    """A message exceeds the frame limit, ``MAX_FRAME``."""


class BindFailed(PipelineError):
    """The server could not bind its listening address."""


def parse_address(address) -> tuple[str, int]:
    """Accept 'host:port' strings or (host, port) tuples.

    Raises:
        ValueError: if a string has no host, or the port is not a number from
            0 to 65535: ASCII digits in a string, an ``int`` in a tuple.
    """
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ValueError(f"address must be 'host:port', got {address!r}")
        if port.isascii() and port.isdigit():  # int() would also take "+80", " 80" and "8_0"
            port = int(port)
    else:
        host, port = address
    if type(port) is not int or not 0 <= port <= 65535:  # bool is a subclass of int, not int itself
        raise ValueError(f"port must be an integer from 0 to 65535, got {port!r}")
    return host, port


def _reject_nonfinite(token: str):
    raise ValueError(f"non-finite number {token!r} is forbidden on the wire")


# The header fields that name a message's columns, in the order of its body.
_COLUMN_FIELDS = {"fit": ("inputs", "outputs"), "predict": ("inputs",), "prediction": ("outputs",)}


def _encode(payload: dict) -> bytes:
    """The frame of ``payload``: its JSON header line, then its body.

    In a message that carries columns, each field of ``_COLUMN_FIELDS`` holds
    a Dataset. The header names its columns, and the body holds their
    float64 bytes; a trace column raises TraceColumn.
    """
    header, arrays = dict(payload), []
    fields = _COLUMN_FIELDS.get(payload["kind"], ())
    for field in fields:
        dataset = payload[field]
        header[field] = list(dataset.column_names)
        arrays += dataset.floats(dataset.column_names)
    if fields:
        header["body"] = 8 * sum(len(values) for values in arrays)
    try:
        text = json.dumps(header, allow_nan=False, separators=(",", ":"))
    except ValueError as exc:
        raise RemoteError(f"cannot serialize message: {exc}") from None
    line = text.encode("utf-8") + b"\n"
    size = len(line) + header.get("body", 0)
    if size > MAX_FRAME:
        raise FrameTooLarge(f"message of {size} bytes exceeds frame limit {MAX_FRAME}")
    return b"".join([line, *(np.ascontiguousarray(values, "<f8") for values in arrays)])


def _decode(message: dict, body: bytes | None) -> list[Dataset]:
    """The Datasets a message of a kind in ``_COLUMN_FIELDS`` carries, cut from its body.

    Raises:
        ValueError: ``<field>: <message>`` if a field's names break the column-name
            rule of ``dataset._names`` (a non-empty list of column names, none
            twice); if ``body`` is malformed, or the body does not split into whole rows.
        NonFiniteValue: if a value is NaN or an infinity (a ValueError too).
    """
    kind = message["kind"]
    groups = []
    for field in _COLUMN_FIELDS[kind]:
        if field not in message:
            raise ValueError(f"{kind} without {field!r}")
        names = message[field]
        if (problem := _names(names, unique=True)) is not None:
            raise ValueError(f"{field}: {problem}")
        groups.append(names)
    if "body" not in message:
        raise ValueError(f"{kind} without 'body'")
    if body is None:
        raise ValueError(f"'body' must be a non-negative integer, got {message['body']!r}")
    width = sum(map(len, groups))
    rows, extra = divmod(len(body), 8 * width)
    if extra:
        raise ValueError(f"body of {len(body)} bytes does not hold whole rows of {width} float64 columns")
    columns = iter(np.frombuffer(body, "<f8").reshape(width, rows))
    return [Dataset([(name, next(columns)) for name in names], row_count=rows) for names in groups]


class RemoteModel:
    """Client-side handle to a model trained on a remote server."""

    def __init__(self, session: "RemoteSession", model_id: str,
                 input_columns: Sequence[str], output_column: str):
        self._session = session
        self.model_id = model_id
        self.input_columns = tuple(input_columns)
        self.output_column = output_column

    def predict(self, inputs: Dataset) -> Dataset:
        """Predict through the remote session; row-aligned with the inputs.

        Raises:
            SchemaMismatch: if input columns differ from the trained schema.
            RemoteError / TimeoutError: on transport or server failures.
        """
        _check_input_columns(inputs, self.input_columns)
        ordered = inputs.select(self.input_columns)
        response, body = self._session._request(
            {"kind": "predict", "model": self.model_id, "inputs": ordered}, "prediction"
        )
        try:
            (predictions,) = _decode(response, body)
        except ValueError as exc:
            raise RemoteError(f"malformed response: {exc}") from None
        if predictions.column_names != (self.output_column,) or predictions.row_count != ordered.row_count:
            raise RemoteError(
                f"malformed response: expected column {self.output_column!r} with "
                f"{ordered.row_count} rows, got {predictions!r}"
            )
        return predictions

    def fetch(self) -> Model:
        """Download the serialized model and rebuild it locally."""
        response, _ = self._session._request({"kind": "save", "model": self.model_id}, "saved")
        return model_from_dict(response.get("data"))


class RemoteSession:
    """One client connection; requests are answered strictly in order."""

    def __init__(self, sock: socket.socket, timeout: float):
        self._sock = sock
        self._buffer = bytearray()
        self._timeout = timeout

    def _request(self, payload: dict, expect: str) -> tuple[dict, bytes | None]:
        """Send one request; return the header and body of its response, which must be of kind ``expect``."""
        if self._sock.fileno() < 0:
            raise ConnectionClosed("session is closed")
        frame = _encode(payload)
        try:
            self._sock.sendall(frame)
            received = _read_message(self._sock, self._buffer, self._timeout)
            if received is None:
                raise ConnectionClosed("server closed the connection")
        except ValueError as exc:  # the line was consumed; the next response is read intact
            raise RemoteError(f"malformed response: {exc}") from None
        except (TimeoutError, FrameTooLarge, ConnectionClosed):
            self.close()  # the rest of this response would answer the next request
            raise
        except OSError as exc:
            self.close()
            raise ConnectionClosed(f"connection lost: {exc}") from None
        message = received[0]
        if message.get("kind") == "error":
            raise RemoteError(message.get("message", "unspecified server error"))
        if message.get("kind") != expect:
            raise RemoteError(f"unexpected response kind {message.get('kind')!r}")
        return received

    def fit(self, inputs: Dataset, outputs: Dataset) -> RemoteModel:
        """Train on the server; returns a handle to the remote model.

        Raises:
            ShapeMismatch: if inputs and outputs differ in row count; nothing is sent.
            TraceColumn: if a column holds traces; nothing is sent.
            RemoteError / TimeoutError: on transport or server failures.
        """
        if inputs.row_count != outputs.row_count:
            raise ShapeMismatch(f"{inputs.row_count} input rows vs {outputs.row_count} output rows")
        response, _ = self._request({"kind": "fit", "inputs": inputs, "outputs": outputs}, "fit_ack")
        model_id = response.get("model")
        if not isinstance(model_id, str):
            raise RemoteError(f"malformed response: fit_ack 'model' must be a string, got {model_id!r}")
        return RemoteModel(self, model_id, inputs.column_names, outputs.column_names[0])

    def shutdown_server(self) -> None:
        """Ask the server process to stop accepting sessions and exit."""
        self._request({"kind": "shutdown"}, "shutdown_ack")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _timeout(value):
    """The ``remote`` kind's timeout check, which :func:`connect` applies: None, or why ``value`` is refused."""
    return _positive(value) or (None if value <= MAX_TIMEOUT else f"must be at most {MAX_TIMEOUT!r} seconds")


def connect(address, timeout: float = DEFAULT_TIMEOUT) -> RemoteSession:
    """Open a session: TCP connect plus the hello/hello_ack exchange.

    The hello names ``PROTOCOL_VERSION``. Every column of the session travels
    as its little-endian float64 bytes in a message's body, and no message
    either way may exceed ``MAX_FRAME``.

    Raises:
        ValueError: if ``address`` is malformed (see :func:`parse_address`)
            or ``timeout`` is not a positive real number (a bool is not one)
            or is above ``MAX_TIMEOUT``.
        ConnectFailed: if the server is unreachable or refuses the session.
        VersionMismatch: if the protocol versions are incompatible.
        FrameTooLarge: if the ``hello_ack`` exceeds ``MAX_FRAME``.
        TimeoutError: if the server sends no byte of its answer within
            ``timeout``, or does not complete it within ``timeout`` of its
            first byte.
    """
    if _timeout(timeout):
        raise ValueError(f"timeout must be a positive number of at most {MAX_TIMEOUT!r} seconds, got {timeout!r}")
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectFailed(f"cannot connect to {host}:{port}: {exc}") from None
    session = RemoteSession(sock, timeout)
    try:
        response, _ = session._request({"kind": "hello", "version": PROTOCOL_VERSION}, "hello_ack")
        if response.get("version") != PROTOCOL_VERSION:
            raise VersionMismatch(
                f"server speaks version {response.get('version')}, client {PROTOCOL_VERSION}"
            )
    except BaseException as exc:
        session.close()
        if isinstance(exc, RemoteError):  # a refused hello
            raise (VersionMismatch if "version" in str(exc) else ConnectFailed)(str(exc)) from None
        raise
    return session


def _read_message(sock: socket.socket, buffer: bytearray, timeout: float) -> tuple[dict, bytes | None] | None:
    """The next message from ``sock``: its header and its body, or None at a clean EOF between messages.

    The body is None unless the header declares an integer ``body`` of at
    least 0. ``buffer`` keeps the bytes read past the message for the next call.

    Raises:
        FrameTooLarge: if ``MAX_FRAME + 1`` bytes arrive without an LF, or the
            header line, without its LF, and its declared body together
            exceed ``MAX_FRAME``.
        ConnectionClosed: if EOF cuts a message short.
        ValueError: if the line, now consumed, is not one JSON object.
        TimeoutError: if no byte arrives within ``timeout``, or if a message is
            not complete within ``timeout`` of its first byte.
    """
    deadline = None

    def receive(started: bool, most: int = _RECV_SIZE) -> bytes:
        """The next at most ``most`` bytes from ``sock``; empty at EOF."""
        nonlocal deadline
        wait = timeout
        if started:
            if deadline is None:
                deadline = time.monotonic() + timeout
            wait = deadline - time.monotonic()
            if wait <= 0:
                raise TimeoutError("frame not completed in time")
        sock.settimeout(wait)
        return sock.recv(most)

    limit = MAX_FRAME + 1
    scanned = 0
    while (end := buffer.find(b"\n", scanned, limit)) < 0:
        if len(buffer) >= limit:
            raise FrameTooLarge(f"frame exceeds limit of {MAX_FRAME} bytes")
        scanned = len(buffer)
        chunk = receive(bool(buffer))
        if not chunk:
            if buffer:
                raise ConnectionClosed("peer closed the connection mid-message")
            return None
        buffer += chunk
    line = bytes(buffer[:end])
    del buffer[:end + 1]
    sock.settimeout(timeout)
    try:
        message = json.loads(line.decode("utf-8"), parse_constant=_reject_nonfinite)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    if not isinstance(message, dict):
        raise ValueError("message is not an object")
    size = message.get("body")
    body = None
    if type(size) is int and size >= 0:  # bool is a subclass of int, not int itself
        if end + size > MAX_FRAME:  # the LF is not counted, as for a line without a body
            raise FrameTooLarge(f"frame exceeds limit of {MAX_FRAME} bytes")
        parts = [bytes(buffer[:size])]
        del buffer[:size]
        missing = size - len(parts[0])
        while missing:  # read no byte past the body, so nothing is left over for the buffer
            parts.append(receive(True, min(missing, _RECV_SIZE)))
            if not parts[-1]:
                raise ConnectionClosed("peer closed the connection mid-message")
            missing -= len(parts[-1])
        body = b"".join(parts)
        sock.settimeout(timeout)
    return message, body


class _SessionHandler(socketserver.BaseRequestHandler):
    # Limit on the wait for a request, on the time from its first byte to the
    # last byte of its body, and on each send.
    timeout = DEFAULT_TIMEOUT

    def handle(self):
        self.request.settimeout(self.timeout)
        if not self.server.session_slots.acquire(blocking=False):
            self._send({"kind": "error", "message": "server at capacity"})
            return
        try:
            self._serve_session()
        finally:
            self.server.session_slots.release()

    def _serve_session(self) -> None:
        self._models: dict[str, Model] = {}
        buffer = bytearray()
        while True:
            try:
                received = _read_message(self.request, buffer, self.timeout)
            except ValueError as exc:
                self._send({"kind": "error", "message": f"malformed message: {exc}"})
                continue
            except FrameTooLarge as exc:
                self._send({"kind": "error", "message": str(exc)})
                return  # framing is lost; end the session
            except (OSError, ConnectionClosed):  # TimeoutError included
                return  # idle, trickling or vanished peer; end the session and free its slot
            if received is None:
                return
            try:
                response, stop = self._dispatch(*received)
            except (PipelineError, ValueError, KeyError, TypeError) as exc:
                response, stop = {"kind": "error", "message": str(exc)}, False
            self._send(response)
            if stop:  # end the serve loop only once the ack is sent: the process may exit then
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return

    def _dispatch(self, message: dict, body: bytes | None):
        """The response to one request, and whether the server shuts down after it."""
        kind = message.get("kind")
        if "body" in message and kind not in ("fit", "predict"):
            raise ValueError(f"a {kind!r} request carries no columns, so no 'body'")
        if kind == "hello":
            version = message.get("version")
            if version != PROTOCOL_VERSION:
                raise ValueError(f"unsupported protocol version: {version}")
            return {"kind": "hello_ack", "version": PROTOCOL_VERSION}, False
        if kind == "fit":
            inputs, outputs = _decode(message, body)
            model = fit_linear(inputs, outputs)
            model_id = model.model_id
            self._models[model_id] = model
            return {"kind": "fit_ack", "model": model_id}, False
        if kind == "predict":
            model = self._lookup(message)
            (inputs,) = _decode(message, body)
            return {"kind": "prediction", "outputs": model.predict(inputs)}, False
        if kind == "save":
            model = self._lookup(message)
            return {"kind": "saved", "model": message["model"], "data": model.to_dict()}, False
        if kind == "shutdown":
            return {"kind": "shutdown_ack"}, True
        raise ValueError(f"unknown request kind: {kind!r}")

    def _lookup(self, message: dict) -> Model:
        model_id = message.get("model")
        if model_id not in self._models:
            raise ValueError(f"unknown model id: {model_id!r}")
        return self._models[model_id]

    def _send(self, payload: dict) -> None:
        try:
            frame = _encode(payload)
        except (FrameTooLarge, RemoteError) as exc:
            frame = _encode({"kind": "error", "message": str(exc)})
        try:
            self.request.sendall(frame)
        except OSError:
            pass  # peer already gone; session loop will observe EOF


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], max_sessions: int):
        super().__init__(address, _SessionHandler)
        self.session_slots = threading.Semaphore(max_sessions)


class LearnerServer:
    """Reference server serving ``fit_linear`` over the wire protocol.

    Each accepted session is handled on its own thread, strictly in request
    order, with a private model registry. At most ``max_sessions`` sessions
    run concurrently; further connects are refused with an error response.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, max_sessions: int = 8):
        max_sessions = _setting("max_sessions", max_sessions, _positive_int)  # a Semaphore(1.5) never reaches 0
        try:
            self._tcp = _TcpServer(parse_address((host, port)), max_sessions)
        except OSError as exc:
            raise BindFailed(f"cannot bind {host}:{port}: {exc}") from None
        self._serving = False  # whether a serve loop was started, which shutdown() waits for
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    def start(self) -> "LearnerServer":
        """Serve on a background thread; returns self."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until shut down."""
        self._serving = True
        try:
            self._tcp.serve_forever(poll_interval=0.05)
        finally:
            self._tcp.server_close()

    def stop(self) -> None:
        """End the serve loop, if one was started, and close the listening socket.

        The loop polls for a shutdown request every 50 ms, so stop returns
        within about that long.
        """
        if self._serving:
            self._tcp.shutdown()
            self._serving = False
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "LearnerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
