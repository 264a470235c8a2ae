"""Registry behavior, wire protocol, node drivers, and whole-scenario runs."""

import json
import re
import select
import socket
import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptdf import edge_sim, gp_core
from gptdf.data_io import generate_synthetic
from gptdf.edge_sim import (
    ENVELOPE_FIELDS,
    MAX_REASON_CHARS,
    MESSAGE_FIELDS,
    MESSAGE_TYPES,
    CloudRegistry,
    FeatureQuery,
    FeatureRecord,
    InProcessChannel,
    NodeSpec,
    Scenario,
    SocketChannel,
    handle,
    run_edge_node,
    run_simulation,
    serve_registry,
)
from gptdf.errors import ConfigError, DataError, GptdfError, TransportError
from gptdf.gp_core import FitConfig, TemporalFeature, TimeSeries

from conftest import DEMOS

FEATURE = TemporalFeature(0.8, 2.0, 0.1)


def record(source="edge-00", fitted_at=0, feature=FEATURE, n_points=100):
    return FeatureRecord(source_id=source, feature=feature,
                         n_points=n_points, fitted_at=fitted_at)


# Arbitrary JSON, with numbers past what a float or an int conversion takes
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=12)
    | st.integers() | st.integers(-10 ** 400, 10 ** 400),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)
# Wire messages: a valid report with any of its fields dropped or replaced,
# any type, and envelope or unknown fields added
MESSAGES = st.builds(
    lambda kind, dropped, replaced, extra: {
        **{k: v for k, v in record().to_message().items() if k not in dropped},
        "type": kind, **replaced, **extra},
    st.sampled_from(MESSAGE_TYPES) | JSON_VALUES,
    st.sets(st.sampled_from(MESSAGE_FIELDS)),
    st.dictionaries(st.sampled_from(MESSAGE_FIELDS + ENVELOPE_FIELDS), JSON_VALUES, max_size=3),
    st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2))
# Lines a parser chokes on: past the int digit limit, past the recursion
# limit, a number no int or float conversion takes
HOSTILE_LINES = {
    "digits": "1" * 5000,
    "nesting": "[" * 100_000,
    "infinite-count": json.dumps({**record().to_message(), "n_points": float("inf")}),
    "huge-scale": json.dumps({**record().to_message(), "sigma_f": 10 ** 400}),
}
HOSTILE_PARAMS = [pytest.param(line, id=name) for name, line in HOSTILE_LINES.items()]
# Requests whose rejection reason would quote about 100 KB of the request
LONG = "x" * 100_000
LONG_REASON_PARAMS = [pytest.param(line, id=name) for name, line in {
    "bad-json": "{" + LONG,
    "deep-nesting": "[" * 100_000,
    "string-limit": json.dumps({"type": "query", "source_id": "target", "limit": LONG}),
    "response-type": json.dumps({"type": "response", "source_id": LONG}),
    "long-sigma-f": json.dumps({**record().to_message(), "sigma_f": LONG}),
}.items()]


def quick_fit():
    return FitConfig(restarts=1, seed=0)


def synthetic_spec(n, seed, feature=FEATURE):
    return {"synthetic": {"sigma_f": feature.sigma_f, "sigma_l": feature.sigma_l,
                          "sigma_n": feature.sigma_n, "n": n, "seed": seed}}


class TestRegistry:
    def test_report_then_query_round_trip(self):
        registry = CloudRegistry()
        ack = registry.report(record())
        assert ack.accepted
        response = registry.query(FeatureQuery("target"))
        assert len(response) == 1
        assert response.records[0].feature == FEATURE

    def test_duplicate_report_is_idempotent(self):
        registry = CloudRegistry()
        registry.report(record())
        ack = registry.report(record())
        assert ack.accepted and ack.reason == "duplicate"
        assert len(registry.query(FeatureQuery("target"))) == 1

    def test_invalid_feature_rejected_with_reason(self):
        registry = CloudRegistry()
        # a value of the wrong JSON type is rejected like one out of range
        for key, bad in (("sigma_l", 0.0), ("sigma_f", True), ("sigma_n", "0.1"),
                         ("sigma_f", 1e200), ("sigma_l", 1e-320)):
            msg = record().to_message()
            msg[key] = bad
            reply = json.loads(handle(registry, json.dumps(msg))[0])
            assert reply["status"] == "rejected"
            assert reply["reason"].startswith("invalid feature record: ")
            assert key in reply["reason"]
        assert len(registry.query(FeatureQuery("target"))) == 0

    def test_limit_and_recency_order(self):
        registry = CloudRegistry()
        for i in range(18):
            registry.report(record(source=f"edge-{i:02d}", fitted_at=i))
        assert len(registry.query(FeatureQuery("target"))) == 18
        limited = registry.query(FeatureQuery("target", limit=4))
        assert len(limited) == 4
        assert [r.fitted_at for r in limited.records] == [17, 16, 15, 14]

    def test_requesters_own_records_excluded(self):
        registry = CloudRegistry()
        registry.report(record(source="edge-00"))
        registry.report(record(source="edge-01", fitted_at=1))
        response = registry.query(FeatureQuery("edge-00"))
        assert [r.source_id for r in response.records] == ["edge-01"]

    def test_empty_registry_returns_empty(self):
        assert len(CloudRegistry().query(FeatureQuery("anyone"))) == 0

    def test_reply_line_encoded_when_stored(self):
        registry = CloudRegistry()
        registry.report(record(source="edge-00"))
        handle(registry, json.dumps(record(source="edge-01", fitted_at=1).to_message()))
        stored = registry.query(FeatureQuery("target")).records
        assert len(stored) == 2
        for r in stored:
            assert registry.response_line(r) == edge_sim.encode_message(
                {**r.to_message(), "type": "response"})

    def test_concurrent_reports_all_appear(self):
        registry = CloudRegistry()
        snapshots = []
        stop = threading.Event()

        def reporter(base):
            for i in range(25):
                registry.report(record(source=f"edge-{base}-{i}", fitted_at=base * 100 + i))

        def querier():
            while not stop.is_set():
                snapshots.append(len(registry.query(FeatureQuery("q"))))

        threads = [threading.Thread(target=reporter, args=(b,)) for b in range(4)]
        q = threading.Thread(target=querier)
        q.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        q.join()
        assert len(registry.query(FeatureQuery("q"))) == 100
        assert snapshots == sorted(snapshots)  # sizes only ever grow


class TestMessages:
    def test_report_message_schema(self):
        msg = record().to_message()
        assert set(msg) == set(MESSAGE_FIELDS)
        assert msg["type"] == "report"

    def test_record_round_trip(self):
        rec = record(source="edge-07", fitted_at=3, n_points=321)
        assert FeatureRecord.from_message(rec.to_message()) == rec

    def test_n_points_floor(self):
        with pytest.raises(ValueError):
            record(n_points=7)

    # a mistyped field is rejected, never converted: a fitted_at of 1.9 must
    # not be stored as 1 and shadow a later report at 1
    @pytest.mark.parametrize("key, bad", [("fitted_at", 1.9), ("fitted_at", True),
                                          ("n_points", 400.0), ("source_id", 7),
                                          ("raw_values", [1, 2, 3])])
    def test_record_fields_read_strictly(self, key, bad):
        msg = {**record().to_message(), key: bad}
        registry = CloudRegistry()
        reply = json.loads(handle(registry, json.dumps(msg))[0])
        assert reply["status"] == "rejected"
        assert repr(key) in reply["reason"]
        assert len(registry.query(FeatureQuery("target"))) == 0

    @pytest.mark.parametrize("line", ["", "not json", "[]", "5", '{"type": "response"}',
                                      '{"type": "query"}', '{"type": "query", "source_id": 5}',
                                      '{"type": "query", "source_id": "t", '
                                      '"raw_values": [1, 2, 3]}',
                                      json.dumps({**record().to_message(), "source_id": ""}),
                                      *HOSTILE_PARAMS, *LONG_REASON_PARAMS])
    def test_malformed_request_gets_one_rejected_line(self, line):
        replies = handle(CloudRegistry(), line)
        assert len(replies) == 1
        assert json.loads(replies[0])["status"] == "rejected"
        assert 0 < len(json.loads(replies[0])["reason"]) <= MAX_REASON_CHARS
        assert len(replies[0]) < 400

    @settings(max_examples=200, deadline=None)
    @given(msg=MESSAGES)
    def test_any_object_gets_json_object_replies(self, msg):
        registry = CloudRegistry()
        registry.report(record(source="edge-01"))
        for reply in handle(registry, json.dumps(msg)):
            assert isinstance(json.loads(reply), dict)
            assert len(json.loads(reply).get("reason", "")) <= MAX_REASON_CHARS

    @settings(max_examples=200, deadline=None)
    @given(line=st.text() | st.binary().map(lambda b: b.decode("utf-8", errors="replace")))
    def test_any_line_gets_json_object_replies(self, line):
        for reply in handle(CloudRegistry(), line):
            assert isinstance(json.loads(reply), dict)
            assert len(json.loads(reply).get("reason", "")) <= MAX_REASON_CHARS

    @pytest.mark.parametrize("missing", MESSAGE_FIELDS)
    def test_reply_missing_a_field_fails_the_target_only(self, missing):
        class OneBadReply(edge_sim._Channel):
            def _send(self, line):
                msg = {**record().to_message(), "type": "response"}
                del msg[missing]
                return [json.dumps(msg)]

        with pytest.raises(GptdfError):
            OneBadReply().query(FeatureQuery("target"))
        scenario = Scenario(nodes=(), target=synthetic_spec(30, 1))
        result = run_simulation(scenario, channel=OneBadReply())
        assert result.target_report is None
        assert [node for node, _ in result.errors] == ["target"]


class TestNodeDrivers:
    def test_historical_node_reports_once(self):
        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        data = generate_synthetic(FEATURE, 200, 0)
        rec = run_edge_node(data, "historical", channel, "edge-00",
                            fitted_at=0, fit_config=quick_fit())
        assert rec.n_points == 200
        assert len(registry.query(FeatureQuery("target"))) == 1

    def test_historical_node_error_carries_id(self):
        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        flat = TimeSeries.from_values(np.full(50, 3.0))
        with pytest.raises(DataError, match="node edge-09"):
            run_edge_node(flat, "historical", channel, "edge-09", fit_config=quick_fit())

    @pytest.mark.parametrize("role, error, reason", [
        ("historical", DataError, "registry rejected report: no reply"),
        ("relay", ConfigError, "unknown node role 'relay'"),
    ])
    def test_node_failure_carries_id(self, role, error, reason):
        class NoReply(edge_sim._Channel):
            def _send(self, line):
                return []

        data = generate_synthetic(FEATURE, 50, 0)
        with pytest.raises(error, match=f"^node edge-x: {re.escape(reason)}$"):
            run_edge_node(data, role, NoReply(), "edge-x", fit_config=quick_fit())

    def test_target_single_model_collapses_to_windowed_gp(self):
        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        registry.report(record(source="edge-00", feature=FEATURE))
        stream = generate_synthetic(FEATURE, 60, 4)
        report = run_edge_node(stream, "target", channel, "target",
                               tau=15, normalization="none")
        model = FEATURE.to_model()
        wt, wy = deque(maxlen=15), deque(maxlen=15)
        for rec in report.records:
            window = TimeSeries(np.array(wt), np.array(wy)) if wt else None
            ref = gp_core.predict(model, window, rec.t)
            assert abs(rec.prediction.distribution.mean - ref.mean) < 1e-12
            wt.append(rec.t)
            wy.append(rec.truth)

    def test_target_fallback_on_empty_registry(self):
        channel = InProcessChannel(CloudRegistry())
        stream = generate_synthetic(FEATURE, 30, 5)
        report = run_edge_node(stream, "target", channel, "target")
        assert report.used_fallback
        assert report.model_ids == ("default-prior",)
        assert report.metrics["delay"] == 0

    def test_target_subset_selection(self):
        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        for i in range(6):
            registry.report(record(source=f"edge-{i:02d}", fitted_at=i))
        stream = generate_synthetic(FEATURE, 25, 6)
        report = run_edge_node(stream, "target", channel, "target",
                               subset=["edge-01", "edge-04"])
        assert sorted(report.model_ids) == ["edge-01", "edge-04"]

    def test_target_subset_chosen_before_limit(self):
        # capping the query first would keep only edge-05, outside the subset,
        # and leave the target on the default prior
        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        for i in range(6):
            registry.report(record(source=f"edge-{i:02d}", fitted_at=i))
        stream = generate_synthetic(FEATURE, 25, 6)
        report = run_edge_node(stream, "target", channel, "target", limit=1, subset=["edge-01"])
        assert report.model_ids == ("edge-01",) and not report.used_fallback
        # the cap then keeps the most recent of the subset's records
        report = run_edge_node(stream, "target", channel, "target", limit=1,
                               subset=["edge-01", "edge-04"])
        assert report.model_ids == ("edge-04",)

    def test_target_limit(self):
        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        for i in range(6):
            registry.report(record(source=f"edge-{i:02d}", fitted_at=i))
        stream = generate_synthetic(FEATURE, 25, 6)
        report = run_edge_node(stream, "target", channel, "target", limit=2)
        assert len(report.model_ids) == 2

    def test_matching_experts_dominate_mixed_registry(self):
        # registry holds four experts matching the stream's generator and
        # four with far longer length scales; the matching group must end
        # up holding the weight
        from conftest import LONG_SCALE_FEATURES, SHORT_SCALE_FEATURES

        registry = CloudRegistry()
        channel = InProcessChannel(registry)
        for i, d in enumerate(SHORT_SCALE_FEATURES + LONG_SCALE_FEATURES):
            registry.report(record(source=f"edge-{i:02d}", fitted_at=i,
                                   feature=TemporalFeature(**d)))
        generator = TemporalFeature(**SHORT_SCALE_FEATURES[0])
        stream = generate_synthetic(generator, 300, seed=2)
        report = run_edge_node(stream, "target", channel, "target",
                               tau=50, normalization="none")
        weights = dict(zip(report.model_ids, report.records[-1].prediction.omega_hat))
        matching = {f"edge-{i:02d}" for i in range(len(SHORT_SCALE_FEATURES))}
        matching_mass = sum(w for mid, w in weights.items() if mid in matching)
        assert matching_mass > 0.5


class TestSimulation:
    def _scenario(self, n_nodes=3, node_n=120, target_n=60, **kwargs):
        nodes = tuple(NodeSpec(f"edge-{i:02d}", synthetic_spec(node_n, 10 + i))
                      for i in range(n_nodes))
        defaults = dict(nodes=nodes, target=synthetic_spec(target_n, 99),
                        tau=20, fit=quick_fit())
        defaults.update(kwargs)
        return Scenario(**defaults)

    def test_full_run(self):
        result = run_simulation(self._scenario())
        assert result.ok
        assert len(result.feature_records) == 3
        assert result.target_report.metrics["delay"] == 0
        assert len(result.target_report.records) == 60

    def test_no_raw_values_on_the_wire(self):
        scenario = self._scenario()
        result = run_simulation(scenario)
        raw_values = []
        for i, node in enumerate(scenario.nodes):
            from gptdf.data_io import resolve_data_spec
            raw_values.extend(resolve_data_spec(node.data).values)
        wire = "\n".join(line for _, _, line in result.traffic)
        for v in raw_values:
            assert json.dumps(float(v)) not in wire
        # every line parses and only carries schema + envelope keys
        from gptdf.edge_sim import ENVELOPE_FIELDS

        allowed = set(MESSAGE_FIELDS) | set(ENVELOPE_FIELDS)
        for _, _, line in result.traffic:
            msg = json.loads(line)
            assert set(msg) <= allowed
            assert not any(isinstance(v, (list, dict)) for v in msg.values())

    def test_payload_constant_in_dataset_size(self):
        small = run_simulation(self._scenario(n_nodes=2, node_n=100))
        large = run_simulation(self._scenario(n_nodes=2, node_n=800))
        for result in (small, large):
            for node_id, size in result.bytes_by_node.items():
                if node_id.startswith("edge-"):
                    assert size < 400
        for node_id in small.bytes_by_node:
            if node_id.startswith("edge-"):
                drift = abs(small.bytes_by_node[node_id] - large.bytes_by_node[node_id])
                assert drift <= 32  # digit-count wiggle only; raw data grew 8x

    def test_zero_historical_nodes_fall_back(self):
        scenario = Scenario(nodes=(), target=synthetic_spec(30, 1), tau=10)
        result = run_simulation(scenario)
        assert result.target_report.used_fallback
        assert result.target_report.metrics["delay"] == 0
        assert not result.errors

    def test_deterministic_per_seed(self):
        a = run_simulation(self._scenario(seed=5))
        b = run_simulation(self._scenario(seed=5))
        assert a.traffic == b.traffic
        for ra, rb in zip(a.target_report.records, b.target_report.records):
            assert ra.prediction.distribution == rb.prediction.distribution

    def test_partial_failure_isolated(self, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("flow\n1\nx\n")
        nodes = (NodeSpec("edge-00", synthetic_spec(120, 3)),
                 NodeSpec("edge-01", {"csv": str(bad_csv)}))
        scenario = Scenario(nodes=nodes, target=synthetic_spec(30, 9),
                            tau=10, fit=quick_fit())
        result = run_simulation(scenario)
        assert not result.ok
        assert [node for node, _ in result.errors] == ["edge-01"]
        assert len(result.feature_records) == 1
        assert result.target_report is not None  # target still ran

    def test_scenario_validation(self):
        spec = synthetic_spec(30, 1)  # valid, so each case reaches only its own check
        with pytest.raises(ConfigError, match="duplicate node ids"):
            Scenario(nodes=(NodeSpec("a", spec), NodeSpec("a", spec)), target=spec)
        with pytest.raises(ConfigError, match="empty node id"):
            Scenario(nodes=(NodeSpec("a", spec), NodeSpec("", spec)), target=spec)
        with pytest.raises(ConfigError, match="collides with a historical node"):
            Scenario(nodes=(NodeSpec("target", spec),), target=spec)
        with pytest.raises(ConfigError, match="subset must be 'all' or a list"):
            Scenario(nodes=(), target=spec, subset=5)
        with pytest.raises(ConfigError, match="alpha must lie in"):
            Scenario(nodes=(), target=spec, alpha=1.0)
        with pytest.raises(ConfigError, match="tau must be >= 1"):
            Scenario(nodes=(), target=spec, tau=0)
        with pytest.raises(ConfigError, match="limit must be >= 1"):
            Scenario(nodes=(), target=spec, limit=0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            Scenario(nodes=(), target=spec, seed=-1)
        with pytest.raises(ConfigError, match="unknown normalization mode 'onlin'"):
            Scenario(nodes=(), target=spec, normalization="onlin")
        with pytest.raises(ConfigError, match=r"subset \['edge-00', 'edge-99'\] names a node"):
            Scenario(nodes=(NodeSpec("edge-00", spec),), target=spec,
                     subset=["edge-00", "edge-99"])
        # a malformed data spec is reported under its node's id
        with pytest.raises(ConfigError, match=r"^bad data spec of edge-01: unknown .*'sed'"):
            Scenario(nodes=(NodeSpec("edge-00", spec), NodeSpec("edge-01", {"synthetic": {
                **spec["synthetic"], "sed": 5}})), target=spec)
        with pytest.raises(ConfigError, match=r"^bad data spec of target: synthetic n must be >= 1"):
            Scenario(nodes=(), target={"synthetic": {**spec["synthetic"], "n": 0}})
        with pytest.raises(ConfigError, match=r"^bad data spec of target: .* seed >= 0"):
            Scenario(nodes=(), target={"synthetic": {**spec["synthetic"], "seed": -1}})

    def test_scenario_dict_round_trip(self):
        scenario = self._scenario(limit=4, subset=["edge-00"], seed=3)
        rebuilt = Scenario.from_dict(scenario.as_dict())
        assert rebuilt.as_dict() == scenario.as_dict()
        # settings files: JSON integers where floats are expected, a null
        # limit and both kinds of time column are read, and echoed as written
        demo = json.loads((DEMOS / "scenario_small.json").read_text(encoding="utf-8"))
        integers = {"historical": [{"id": "edge-00", "data": {"csv": "a.csv", "time_column": "t"}},
                                   {"id": "edge-01", "data": {"csv": "b.csv", "column": 1,
                                                              "time_column": 0}}],
                    "target": {"synthetic": {"sigma_f": 1, "sigma_l": 2, "sigma_n": 0, "n": 30}},
                    "alpha": 0.5, "limit": None, "fit": {"sigma_f_bounds": [1, 1000]}}
        for raw in (demo, integers):
            echoed = Scenario.from_dict(raw).as_dict()
            assert Scenario.from_dict(echoed).as_dict() == echoed
            assert {key: echoed[key] for key in raw if key != "fit"} == {
                key: value for key, value in raw.items() if key != "fit"}
            assert {key: echoed["fit"][key] for key in raw["fit"]} == raw["fit"]


def raw_exchange(address, payload):
    """Send raw request bytes, half-close, and return every reply byte."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def sixteen_records():
    registry = CloudRegistry()
    for i in range(16):
        registry.report(record(source=f"edge-{i:02d}", fitted_at=i))
    return registry


QUERY = json.dumps({"type": "query", "source_id": "target"})
RAW_REQUESTS = [
    pytest.param(QUERY.encode() + b"\n", None, id="query"),
    pytest.param(json.dumps({"type": "query", "source_id": "target", "limit": 1}).encode()
                 + b"\n", None, id="query-limit-1"),
    pytest.param(json.dumps(record(source="edge-99", fitted_at=99).to_message()).encode()
                 + b"\n", None, id="report"),
    pytest.param(b"", None, id="empty"),
    pytest.param(QUERY.encode(), None, id="no-newline"),
    pytest.param(json.dumps({"type": "query", "source_id": "t" * 100}).encode() + b"\n", 64,
                 id="over-long"),
    *(pytest.param(line.encode() + b"\n", None, id=f"hostile-{name}")
      for name, line in HOSTILE_LINES.items()),
]


class TestSocketTransport:
    @pytest.mark.parametrize("payload, max_line", RAW_REQUESTS)
    def test_socket_reply_equals_handle_byte_for_byte(self, monkeypatch, payload, max_line):
        if max_line is not None:
            monkeypatch.setattr(edge_sim, "MAX_LINE_BYTES", max_line)
        served, reference = sixteen_records(), sixteen_records()
        server, thread, address = serve_registry(served)
        try:
            raw = raw_exchange(address, payload)
        finally:
            server.shutdown()
            server.server_close()
        lines = handle(reference, payload)
        assert raw == "".join(line + "\n" for line in lines).encode("utf-8")
        everyone = FeatureQuery("q")
        assert served.query(everyone).records == reference.query(everyone).records

    def test_slow_clients_do_not_stall_others(self, monkeypatch):
        timeout, margin = 2.0, 1.0
        monkeypatch.setattr(edge_sim, "SOCKET_TIMEOUT_S", timeout)
        registry = CloudRegistry()
        # A full query's reply (about 10 MB) outgrows a 4 MiB send buffer,
        # Linux's default tcp_wmem maximum, plus a small receive buffer
        for i in range(2500):
            registry.report(record(source=f"edge-{i:04d}-" + "x" * 4000, fitted_at=i))
        full_reply = sum(len(line) + 1 for line in handle(registry, QUERY))
        server, thread, address = serve_registry(registry)

        def assert_others_served():
            start = time.perf_counter()
            assert len(SocketChannel(address).query(FeatureQuery("target", limit=1))) == 1
            assert time.perf_counter() - start < 0.5

        def trickle(sock, deadline, closed_at):
            # one byte every 0.1 s, never a newline, until the server hangs up
            try:
                while time.perf_counter() < deadline + margin:
                    sock.sendall(b"x")
                    if select.select([sock], [], [], 0.1)[0] and not sock.recv(1):
                        break
                else:
                    return
            except ConnectionError:
                pass
            closed_at.append(time.perf_counter())

        try:
            # (a) connects and sends nothing: closed unanswered at its deadline
            with socket.create_connection(address, timeout=timeout + 5.0) as sock:
                deadline = time.perf_counter() + timeout
                assert_others_served()
                assert sock.recv(1) == b""
                assert time.perf_counter() < deadline + margin

            # (b) trickles its request: closed at its deadline, not kept alive by each byte
            with socket.create_connection(address, timeout=timeout + 5.0) as sock:
                deadline = time.perf_counter() + timeout
                closed_at = []
                trickler = threading.Thread(target=trickle, args=(sock, deadline, closed_at))
                trickler.start()
                time.sleep(0.3)
                assert_others_served()
                trickler.join(timeout=timeout + margin + 5.0)
                assert not trickler.is_alive()
                assert closed_at and closed_at[0] < deadline + margin

            # (c) sends a query and never reads its reply
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(timeout + 5.0)
                sock.connect(address)
                deadline = time.perf_counter() + timeout
                sock.sendall(QUERY.encode() + b"\n")
                sock.shutdown(socket.SHUT_WR)
                time.sleep(0.3)  # the server has filled the buffers and waits to write
                assert_others_served()
                time.sleep(max(0.0, deadline + margin - time.perf_counter()))
                # the server gave up the write by now: only what the buffers
                # held arrives before the end of stream
                received = 0
                while chunk := sock.recv(65536):
                    received += len(chunk)
                assert 0 < received < full_reply
        finally:
            server.shutdown()
            server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    def test_matches_in_process_channel(self):
        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            channel = SocketChannel(address)
            ack = channel.report(record(source="edge-00"))
            assert ack.accepted
            # duplicate over the wire stays idempotent
            assert channel.report(record(source="edge-00")).accepted
            channel.report(record(source="edge-01", fitted_at=1))
            response = channel.query(FeatureQuery("target"))
            assert sorted(r.source_id for r in response.records) == ["edge-00", "edge-01"]
            assert len(registry.query(FeatureQuery("q"))) == 2

            limited = channel.query(FeatureQuery("target", limit=1))
            assert len(limited) == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_rejection_over_the_wire(self):
        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            channel = SocketChannel(address)
            msg = record().to_message()
            msg["sigma_f"] = -1.0
            rec = FeatureRecord.__new__(FeatureRecord)  # bypass client-side validation
            object.__setattr__(rec, "source_id", "edge-00")
            object.__setattr__(rec, "feature", FEATURE)
            object.__setattr__(rec, "n_points", 100)
            object.__setattr__(rec, "fitted_at", 0)
            rec_msg = rec.to_message()
            rec_msg["sigma_f"] = -1.0

            import socket as socket_mod

            with socket_mod.create_connection(address) as sock:
                sock.sendall((json.dumps(rec_msg) + "\n").encode())
                sock.shutdown(socket_mod.SHUT_WR)
                reply = json.loads(sock.makefile().readline())
            assert reply["status"] == "rejected"
            assert len(registry.query(FeatureQuery("q"))) == 0
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("bad", ["abc", 0, -1, True])
    def test_bad_limit_rejected_over_both_channels(self, bad):
        registry = CloudRegistry()
        registry.report(record())
        line = json.dumps({"type": "query", "source_id": "target", "limit": bad})
        server, thread, address = serve_registry(registry)
        try:
            import socket as socket_mod

            with socket_mod.create_connection(address) as sock:
                sock.sendall((line + "\n").encode())
                sock.shutdown(socket_mod.SHUT_WR)
                with sock.makefile() as fh:
                    replies = fh.read().splitlines()
            for channel in (InProcessChannel(registry), SocketChannel(address)):
                with pytest.raises(ConfigError, match="limit must be a positive integer"):
                    channel.query(FeatureQuery("target", bad))
        finally:
            server.shutdown()
            server.server_close()
        assert replies == handle(registry, line)
        assert len(replies) == 1
        reply = json.loads(replies[0])
        assert reply["status"] == "rejected"
        assert "limit" in reply["reason"]

    def test_concurrent_socket_clients(self):
        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            def reporter(base):
                channel = SocketChannel(address)
                for i in range(10):
                    ack = channel.report(record(source=f"edge-{base}-{i}",
                                                fitted_at=base * 100 + i))
                    assert ack.accepted

            threads = [threading.Thread(target=reporter, args=(b,)) for b in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(registry.query(FeatureQuery("q"))) == 40
        finally:
            server.shutdown()
            server.server_close()

    def test_simulation_over_socket_equals_in_process(self):
        nodes = (NodeSpec("edge-00", synthetic_spec(100, 12)),)
        scenario = Scenario(nodes=nodes, target=synthetic_spec(25, 13),
                            tau=10, fit=quick_fit())
        baseline = run_simulation(scenario)

        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            result = run_simulation(scenario, channel=SocketChannel(address))
        finally:
            server.shutdown()
            server.server_close()
        assert result.ok
        for ra, rb in zip(result.target_report.records, baseline.target_report.records):
            assert ra.prediction.distribution == rb.prediction.distribution
        assert result.traffic == baseline.traffic
        assert result.bytes_by_node == baseline.bytes_by_node

    # `handle` reads the first line of a request, cut at MAX_LINE_BYTES, for
    # both channels, so a reason that quotes the request reads the same over
    # both; at the default limit the 100 KB lines are cut, at 1 MiB they are not
    @pytest.mark.parametrize("line", ["not json", "[]", '{"type": "query"}', *HOSTILE_PARAMS,
                                      *LONG_REASON_PARAMS])
    def test_bad_request_gets_the_same_reply_over_both_channels(self, monkeypatch, line):
        for max_line in (edge_sim.MAX_LINE_BYTES, 1 << 20):
            monkeypatch.setattr(edge_sim, "MAX_LINE_BYTES", max_line)
            registry = CloudRegistry()
            server, thread, address = serve_registry(registry)
            try:
                over_socket = SocketChannel(address)._send(line)
            finally:
                server.shutdown()
                server.server_close()
            assert over_socket == InProcessChannel(registry)._send(line)
            assert json.loads(over_socket[0])["status"] == "rejected"

    def test_refused_connection_raises_transport_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = probe.getsockname()
        # nothing listens there once the probe is closed
        channel = SocketChannel(address)
        with pytest.raises(TransportError, match=f"registry at {re.escape(str(address))}"):
            channel.query(FeatureQuery("target"))
        with pytest.raises(TransportError, match=f"registry at {re.escape(str(address))}"):
            channel.report(record())
        scenario = Scenario(nodes=(), target=synthetic_spec(30, 1))
        result = run_simulation(scenario, channel=channel)
        assert result.target_report is None
        [(node, error)] = result.errors
        assert node == "target"
        assert error.startswith(f"node target: registry at {address}")

    def test_silent_listener_times_out(self, monkeypatch):
        monkeypatch.setattr(edge_sim, "SOCKET_TIMEOUT_S", 0.2)
        with socket.socket() as listener:
            # the backlog completes the connection; nothing ever replies
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            channel = SocketChannel(listener.getsockname())
            start = time.perf_counter()
            with pytest.raises(TransportError, match="did not answer within 0.2 s"):
                channel.report(record())
            assert time.perf_counter() - start < 5.0

    def test_reply_that_is_not_utf8_is_malformed(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(2)
            listener.settimeout(5.0)

            def reply_garbage():
                for _ in range(2):
                    conn, _ = listener.accept()
                    with conn:
                        while conn.recv(65536):
                            pass
                        conn.sendall(b"\xff\xfe not utf-8\n")

            server = threading.Thread(target=reply_garbage, daemon=True)
            server.start()
            channel = SocketChannel(listener.getsockname())
            with pytest.raises(ConfigError, match="malformed message"):
                channel.query(FeatureQuery("target"))
            with pytest.raises(ConfigError, match="malformed message"):
                channel.report(record())
            server.join(timeout=5.0)
            assert not server.is_alive()

    def test_server_drops_a_client_that_never_sends(self, monkeypatch):
        monkeypatch.setattr(edge_sim, "SOCKET_TIMEOUT_S", 0.2)
        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            with socket.create_connection(address, timeout=5.0) as sock:
                assert sock.recv(1) == b""  # closed unanswered
            assert SocketChannel(address).report(record()).accepted
        finally:
            server.shutdown()
            server.server_close()
        assert len(registry.query(FeatureQuery("q"))) == 1

    def test_client_that_hangs_up_unheard_is_closed_silently(self, capfd):
        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            for _ in range(5):
                socket.create_connection(address, timeout=5.0).close()
            # served after the hung-up connections, so they were handled
            assert SocketChannel(address).report(record()).accepted
        finally:
            server.shutdown()
            server.server_close()
        assert capfd.readouterr().err == ""

    def test_over_long_request_line_is_cut_and_rejected(self, monkeypatch):
        monkeypatch.setattr(edge_sim, "MAX_LINE_BYTES", 64)
        registry = CloudRegistry()
        server, thread, address = serve_registry(registry)
        try:
            with pytest.raises(ConfigError):
                SocketChannel(address).query(FeatureQuery("t" * 100))
            assert SocketChannel(address).query(FeatureQuery("t")).records == ()
        finally:
            server.shutdown()
            server.server_close()
