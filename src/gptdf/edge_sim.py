"""Edge/cloud topology simulation: historical edge nodes fit temporal
features from local data and report them to a cloud registry; a cold-starting
target node queries the registry, builds an ensemble from the returned
features, and runs the online fusion loop over its own stream.

Only the three feature parameters (plus a small envelope) ever cross the
wire, so per-node traffic is constant in the local dataset size and raw
observations never leave their node. Messages are line-delimited JSON with
fixed field names. Every request line, whether handed over in process or
sent over a loopback socket, is answered by the one `handle` function, so
both transports validate and reply alike.
"""

from __future__ import annotations

import errno
import json
import selectors
import socket
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import data_io, evaluation, fusion, gp_core
from .errors import MALFORMED, ConfigError, DataError, GptdfError, TransportError, read_settings
from .gp_core import FitConfig, TemporalFeature

__all__ = [
    "FeatureRecord",
    "FeatureQuery",
    "FeatureResponse",
    "Ack",
    "CloudRegistry",
    "InProcessChannel",
    "SocketChannel",
    "handle",
    "serve_registry",
    "NodeSpec",
    "Scenario",
    "TargetReport",
    "SimulationResult",
    "DEFAULT_PRIOR_FEATURE",
    "run_edge_node",
    "run_simulation",
    "MESSAGE_TYPES",
    "MESSAGE_FIELDS",
]

MESSAGE_TYPES = ("report", "query", "response")
MESSAGE_FIELDS = ("type", "source_id", "sigma_f", "sigma_l", "sigma_n", "n_points", "fitted_at")
# The JSON type of each field of a record's message
_RECORD_KINDS = dict(zip(MESSAGE_FIELDS, (str, str, float, float, float, int, int)))
# Envelope extras allowed next to the fixed fields
ENVELOPE_FIELDS = ("limit", "status", "reason")
# The JSON type of each field of a query; `limit` is its only envelope extra
_QUERY_KINDS = {"type": str, "source_id": str, "limit": (int, type(None))}

MIN_REPORT_POINTS = gp_core.MIN_FIT_POINTS

# Seconds a socket client waits to connect and for each read; also each server
# connection's deadline, counted from accept, to read its request line and
# write the whole reply.
SOCKET_TIMEOUT_S = 10.0
# Longest request line `handle` reads; a longer one is cut there and rejected.
MAX_LINE_BYTES = 1 << 16
# Longest rejection reason a reply carries: a reason that quotes a hostile
# request is cut to an excerpt, so a reply stays small whatever the request.
MAX_REASON_CHARS = 200

# Fallback expert for a target whose query returns nothing (normalized data)
DEFAULT_PRIOR_FEATURE = TemporalFeature(sigma_f=1.0, sigma_l=1.0, sigma_n=0.1)


@dataclass(frozen=True)
class FeatureRecord:
    """One reported feature triple: who fitted it, from how many points, and
    a logical fit timestamp used for recency ordering and idempotence."""

    source_id: str
    feature: TemporalFeature
    n_points: int
    fitted_at: int

    def __post_init__(self):
        if not self.source_id:
            raise ValueError("source_id must be nonempty")
        if int(self.n_points) < MIN_REPORT_POINTS:
            raise ValueError(f"n_points must be >= {MIN_REPORT_POINTS}, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "fitted_at", int(self.fitted_at))

    @property
    def key(self):
        return (self.source_id, self.fitted_at)

    def to_message(self):
        msg = {"type": "report", "source_id": self.source_id}
        msg.update(self.feature.as_dict())
        msg["n_points"] = self.n_points
        msg["fitted_at"] = self.fitted_at
        return msg

    @classmethod
    def from_message(cls, msg):
        """Read a record from a message with no key outside `MESSAGE_FIELDS`,
        each value of its field's JSON type; nothing is converted."""
        m = read_settings(msg, _RECORD_KINDS, "feature record")
        return cls(source_id=m["source_id"],
                   feature=TemporalFeature(m["sigma_f"], m["sigma_l"], m["sigma_n"]),
                   n_points=m["n_points"], fitted_at=m["fitted_at"])


@dataclass(frozen=True)
class FeatureQuery:
    requester_id: str
    limit: int = None

    def to_message(self):
        msg = {"type": "query", "source_id": self.requester_id}
        if self.limit is not None:
            msg["limit"] = self.limit
        return msg


@dataclass(frozen=True)
class FeatureResponse:
    records: tuple

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class Ack:
    accepted: bool
    reason: str = ""


def encode_message(msg):
    return json.dumps(msg, sort_keys=True)


def decode_message(line):
    try:
        msg = json.loads(line)
    except MALFORMED as exc:
        raise ConfigError(f"malformed message {line!r}: {exc}") from exc
    if not isinstance(msg, dict) or msg.get("type") not in MESSAGE_TYPES:
        raise ConfigError(f"unknown message type in {line!r}")
    return msg


class CloudRegistry:
    """Append-only, in-memory feature store. Reports are idempotent per
    (source_id, fitted_at); queries see a consistent snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records = []
        self._lines = {}  # record key -> its query-response line

    def report(self, record):
        try:
            if not isinstance(record, FeatureRecord):
                record = FeatureRecord.from_message(record)
        except MALFORMED as exc:
            return Ack(False, f"invalid feature record: {exc}")
        with self._lock:
            fresh = record.key not in self._lines
            if fresh:
                # records are frozen, so each one's reply line is encoded once
                self._lines[record.key] = encode_message({**record.to_message(),
                                                          "type": "response"})
                self._records.append(record)
        return Ack(True, "" if fresh else "duplicate")

    def query(self, query):
        with self._lock:
            snapshot = list(self._records)
        matches = [r for r in snapshot if r.source_id != query.requester_id]
        matches.sort(key=lambda r: (-r.fitted_at, r.source_id))
        if query.limit is not None:
            matches = matches[: int(query.limit)]
        return FeatureResponse(tuple(matches))

    def response_line(self, record):
        """The wire line that answers a query with this stored record."""
        return self._lines[record.key]


def _status(accepted, reason=""):
    msg = {"type": "response", "status": "ok" if accepted else "rejected"}
    if reason:
        msg["reason"] = reason[:MAX_REASON_CHARS]
    return [encode_message(msg)]


def handle(registry, request):
    """Serve one request against the registry; return the reply lines.

    `request` is what the transport received, str or bytes; only its first
    line, cut at `MAX_LINE_BYTES` bytes, is read. A report gets one status
    line. A query gets one line per matching record, or one rejected status
    line when its `limit` is not a positive integer or it holds a mistyped
    or unknown field. A line that is not a well-formed report or query is
    rejected too, never raised: both transports answer every request here.
    """
    if isinstance(request, str):
        request = request.encode("utf-8")
    line = request[:MAX_LINE_BYTES].partition(b"\n")[0].decode("utf-8", errors="replace")
    try:
        msg = decode_message(line)
    except ConfigError as exc:
        return _status(False, str(exc))
    if msg["type"] == "report":
        ack = registry.report(msg)
        return _status(ack.accepted, ack.reason)
    if msg["type"] != "query" or "source_id" not in msg:
        return _status(False, f"not a report or query: {line!r}")
    limit = msg.get("limit")
    if limit is not None and (type(limit) is not int or limit < 1):
        return _status(False, f"limit must be a positive integer, got {limit!r}")
    try:
        read_settings(msg, _QUERY_KINDS, "query")
    except ValueError as exc:
        return _status(False, str(exc))
    records = registry.query(FeatureQuery(msg["source_id"], limit)).records
    return [registry.response_line(r) for r in records]


class _Channel:
    """Client side of a registry transport. Every request and reply crosses
    as its wire line and is kept in `traffic` as (direction, node_id, line),
    so traffic can be audited and counted; subclasses only decide how a
    request line reaches `handle`."""

    def __init__(self):
        self.traffic = []

    def _exchange(self, node_id, msg):
        line = encode_message(msg)
        self.traffic.append(("up", node_id, line))
        replies = []
        for reply_line in self._send(line):
            self.traffic.append(("down", node_id, reply_line))
            replies.append(decode_message(reply_line))
        return replies

    def report(self, record):
        replies = self._exchange(record.source_id, record.to_message())
        if not replies:
            return Ack(False, "no reply")
        return Ack(replies[0].get("status") == "ok", replies[0].get("reason", ""))

    def query(self, query):
        replies = self._exchange(query.requester_id, query.to_message())
        if replies and replies[0].get("status") == "rejected":
            raise ConfigError(f"registry rejected query: {replies[0].get('reason', '')}")
        try:
            return FeatureResponse(tuple(FeatureRecord.from_message(msg) for msg in replies))
        except MALFORMED as exc:
            raise ConfigError(f"malformed feature record in registry reply: {exc}") from exc

    def bytes_by_node(self):
        """Total wire bytes attributed to each node (both directions)."""
        totals = {}
        for _, node_id, line in self.traffic:
            totals[node_id] = totals.get(node_id, 0) + len(line.encode("utf-8"))
        return totals


class InProcessChannel(_Channel):
    """Default transport: request lines are handed to `handle` directly."""

    def __init__(self, registry):
        super().__init__()
        self.registry = registry

    def _send(self, line):
        return handle(self.registry, line)


class _Connection:
    """One client of a `_RegistryServer`: its request bytes until the line
    is complete, then its unsent reply bytes (empty once all are sent)."""

    def __init__(self, sock, deadline):
        self.sock = sock
        self.deadline = deadline
        self.request = bytearray()
        self.reply = None


class _RegistryServer:
    """Serves `handle` to every connection from one selector loop on one
    thread. Accepts, reads and writes never block. Each connection has one
    deadline, `SOCKET_TIMEOUT_S` after accept, that covers reading its
    request line and writing its reply; past it the connection is closed,
    answered or not. So a client that sends nothing, trickles its request or
    never reads its reply delays no other client."""

    def __init__(self, registry, address):
        self.registry = registry
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._wake_reader, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._running = True
        self._stopped = threading.Event()

    def serve_forever(self):
        try:
            while self._running:
                now = time.monotonic()
                connections = [key.data for key in self._selector.get_map().values() if key.data]
                for conn in connections:
                    if conn.deadline <= now:
                        self._close(conn)
                deadlines = [c.deadline - now for c in connections if c.deadline > now]
                for key, _ in self._selector.select(min(deadlines, default=None)):
                    if key.fileobj is self.socket:
                        self._accept()
                    elif key.fileobj is self._wake_reader:
                        self._wake_reader.recv(64)
                    else:
                        self._serve(key.data)
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data:
                    self._close(key.data)
            self._stopped.set()

    def shutdown(self):
        """Stop the loop, closing open connections, and wait until it ends."""
        self._running = False
        self._waker.send(b"\0")
        self._stopped.wait()

    def server_close(self):
        self._selector.close()
        for sock in (self.socket, self._wake_reader, self._waker):
            sock.close()

    def _accept(self):
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the client gave up, or no descriptor is free
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ,
                                _Connection(sock, time.monotonic() + SOCKET_TIMEOUT_S))

    def _serve(self, conn):
        try:
            if conn.reply is None:
                self._read(conn)
            elif conn.reply:
                self._write(conn)
            elif not conn.sock.recv(65536):
                # Replied: drain the client until it closes. Closing with
                # request bytes unread would reset the connection before the
                # client reads its reply.
                self._close(conn)
        except BlockingIOError:
            pass
        except ConnectionError:
            self._close(conn)
        except Exception:  # one failed request must not stop the server
            traceback.print_exc()
            self._close(conn)

    def _read(self, conn):
        chunk = conn.sock.recv(65536)
        start = len(conn.request)
        conn.request += chunk
        if chunk and conn.request.find(b"\n", start) < 0 and len(conn.request) < MAX_LINE_BYTES:
            return  # the line is not complete yet
        replies = handle(self.registry, conn.request)
        conn.request = None
        conn.reply = memoryview("".join(reply + "\n" for reply in replies).encode("utf-8"))
        self._write(conn)

    def _write(self, conn):
        try:
            sent = conn.sock.send(conn.reply)
        except BlockingIOError:
            sent = 0
        conn.reply = conn.reply[sent:]
        if conn.reply:
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            return
        # one request per connection; end of stream frames the reply
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            if exc.errno != errno.ENOTCONN:
                raise
            self._close(conn)  # the client hung up before its reply
            return
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _close(self, conn):
        self._selector.unregister(conn.sock)
        conn.sock.close()


def serve_registry(registry, host="127.0.0.1", port=0):
    """Serve a registry over a loopback socket, one request per connection.
    One selector thread serves every connection. `SOCKET_TIMEOUT_S` is one
    deadline per connection, from accept, for reading the request and
    writing the reply; a client that sends nothing, trickles or never reads
    is dropped at it without delaying others.
    Returns (server, thread, (host, port)); call server.shutdown() when done."""
    server = _RegistryServer(registry, (host, port))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address


class SocketChannel(_Channel):
    """Socket transport: each request line travels to a `serve_registry`
    server over its own connection. Connecting and each read wait at most
    `SOCKET_TIMEOUT_S`; past that, or when the connection is refused or
    reset, the request raises TransportError. The server's one selector
    thread answers it within its own deadline of `SOCKET_TIMEOUT_S`, however
    slow other clients are."""

    def __init__(self, address):
        super().__init__()
        self.address = address

    def _send(self, line):
        try:
            with socket.create_connection(self.address, timeout=SOCKET_TIMEOUT_S) as sock:
                sock.sendall((line + "\n").encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
        except TimeoutError as exc:
            raise TransportError(f"registry at {self.address} did not answer within "
                                 f"{SOCKET_TIMEOUT_S} s") from exc
        except OSError as exc:  # refused, reset, unreachable
            raise TransportError(f"registry at {self.address}: {exc}") from exc
        return [reply for reply in raw.decode("utf-8").splitlines() if reply.strip()]


# ---------------------------------------------------------------------------
# Node drivers and scenario orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeSpec:
    id: str
    data: dict  # data spec for data_io.resolve_data_spec


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one topology: historical node datasets, the
    target stream, loop settings, and the model-subset selection."""

    target: dict
    nodes: tuple = ()
    target_id: str = "target"
    tau: int = fusion.DEFAULT_TAU
    alpha: float = fusion.DEFAULT_ALPHA
    limit: int = None
    subset: object = "all"  # "all" or an explicit list of node ids
    normalization: str = "online"
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate node ids: {ids}")
        if "" in ids:  # a node reports its feature under its id
            raise ConfigError(f"empty node id: {ids}")
        if self.target_id in ids:
            raise ConfigError(f"target id {self.target_id!r} collides with a historical node")
        if self.subset != "all" and not isinstance(self.subset, (list, tuple)):
            raise ConfigError("subset must be 'all' or a list of node ids")
        if self.subset != "all" and any(s not in ids for s in self.subset):
            raise ConfigError(f"subset {list(self.subset)} names a node outside {ids}")
        if self.normalization not in data_io.NORMALIZATION_MODES:
            raise ConfigError(f"unknown normalization mode {self.normalization!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 1 <= int(self.tau) <= sys.maxsize:  # window indices are ssize_t
            raise ConfigError(f"tau must be >= 1 and <= {sys.maxsize}, got {self.tau}")
        if self.limit is not None and int(self.limit) < 1:
            raise ConfigError(f"limit must be >= 1, got {self.limit}")
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for node in (*self.nodes, NodeSpec(self.target_id, self.target)):
            data_io.check_data_spec(node.data, f"data spec of {node.id}")

    @classmethod
    def from_dict(cls, d):
        def node(e):
            return NodeSpec(**read_settings(e, {"id": str, "data": dict}, "historical entry"))
        s = read_settings(d, {"historical": [node], "target": dict, "target_id": str,
                              "tau": int, "alpha": float, "limit": (int, type(None)),
                              "subset": (str, list), "normalization": str, "seed": int,
                              "fit": FitConfig.from_dict}, "scenario")
        if "historical" in s:
            s["nodes"] = s.pop("historical")
        return cls(**s)

    def as_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(historical=[asdict(n) for n in d.pop("nodes")],
                 subset=self.subset if self.subset == "all" else list(self.subset),
                 fit=self.fit.as_dict())
        return d


@dataclass(frozen=True)
class TargetReport:
    node_id: str
    model_ids: tuple
    records: list  # StepRecord per stream step
    metrics: dict
    final_weights: tuple
    used_fallback: bool


def run_edge_node(local_data, role, channel, node_id, fitted_at=0, fit_config=None,
                  tau=fusion.DEFAULT_TAU, alpha=fusion.DEFAULT_ALPHA, limit=None,
                  subset="all", normalization="online"):
    """Run one node against the cloud channel.

    role="historical": normalize the local archive, fit its feature triple,
    report it, and return the FeatureRecord. role="target": query for
    features first, build the ensemble (falling back to a default prior
    expert when the registry is empty), then run the online loop over the
    local stream and return a TargetReport. Errors carry the node id.
    """
    try:
        if role == "historical":
            normalized, _ = data_io.normalize(local_data)
            feature = gp_core.fit_hyperparameters(normalized, fit_config)
            record = FeatureRecord(source_id=node_id, feature=feature,
                                   n_points=len(local_data), fitted_at=fitted_at)
            ack = channel.report(record)
            if not ack.accepted:
                raise DataError(f"registry rejected report: {ack.reason}")
            return record
        if role != "target":
            raise ConfigError(f"unknown node role {role!r}")

        response = channel.query(FeatureQuery(node_id, limit))
        records = list(response.records)
        if subset != "all":
            wanted = set(subset)
            records = [r for r in records if r.source_id in wanted]
        used_fallback = not records
        if used_fallback:
            features = [DEFAULT_PRIOR_FEATURE]
            model_ids = ("default-prior",)
        else:
            features = [r.feature for r in records]
            model_ids = tuple(r.source_id for r in records)
        state = fusion.ensemble_from_features(features, tau=tau, alpha=alpha)
        prepared = data_io.prepare_stream(local_data, normalization)
        step_records = fusion.run_stream(state, prepared.series)
        metrics = evaluation._metrics_from_records(step_records, len(prepared.series))
        return TargetReport(node_id=node_id, model_ids=model_ids, records=step_records,
                            metrics=metrics, final_weights=tuple(state.omega_hat),
                            used_fallback=used_fallback)
    except GptdfError as exc:
        raise type(exc)(f"node {node_id}: {exc}") from exc


@dataclass(frozen=True)
class SimulationResult:
    scenario: Scenario
    feature_records: tuple
    target_report: object  # TargetReport or None when the target failed
    bytes_by_node: dict
    traffic: tuple  # (direction, node_id, line)
    errors: tuple  # (node_id, message)

    @property
    def ok(self):
        return not self.errors and self.target_report is not None


def run_simulation(scenario, registry=None, channel=None):
    """Execute all historical nodes, then the target node.

    Node failures are collected instead of aborting; the result carries
    whatever was produced plus the error list and full wire-traffic
    accounting. Deterministic for a fixed scenario (synthetic node data
    derives per-node seeds from the scenario seed)."""
    registry = registry if registry is not None else CloudRegistry()
    channel = channel if channel is not None else InProcessChannel(registry)
    errors = []
    feature_records = []

    seed_seq = np.random.SeedSequence(scenario.seed)
    node_seeds = [int(s.generate_state(1)[0]) for s in seed_seq.spawn(len(scenario.nodes) + 1)]

    # node failures of any stripe become error entries, not crashes
    recoverable = (GptdfError, ValueError, OSError)

    for idx, node in enumerate(scenario.nodes):
        try:
            local = data_io.resolve_data_spec(node.data, fallback_seed=node_seeds[idx])
            record = run_edge_node(local, "historical", channel, node.id,
                                   fitted_at=idx, fit_config=scenario.fit)
            feature_records.append(record)
        except recoverable as exc:
            errors.append((node.id, str(exc)))

    target_report = None
    try:
        target_stream = data_io.resolve_data_spec(scenario.target, fallback_seed=node_seeds[-1])
        target_report = run_edge_node(target_stream, "target", channel, scenario.target_id,
                                      tau=scenario.tau, alpha=scenario.alpha,
                                      limit=scenario.limit, subset=scenario.subset,
                                      normalization=scenario.normalization)
    except recoverable as exc:
        errors.append((scenario.target_id, str(exc)))

    return SimulationResult(scenario=scenario,
                            feature_records=tuple(feature_records),
                            target_report=target_report,
                            bytes_by_node=channel.bytes_by_node(),
                            traffic=tuple(channel.traffic),
                            errors=tuple(errors))
