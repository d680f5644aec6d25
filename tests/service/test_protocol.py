"""Unit tests for the service layer below HTTP: protocol validation,
the content-addressed index cache, and the session manager."""

import asyncio

import pytest

from repro.core import Label
from repro.data import builtin_instance
from repro.relational import Instance, Relation
from repro.service import (
    BadRequest,
    CapacityExceeded,
    IndexCache,
    NotFound,
    ServiceApp,
    SessionManager,
    instance_fingerprint,
    parse_answer_payload,
    parse_create_payload,
    parse_label,
)

from ..conftest import lookup


def small_instance(value=1):
    return Instance(
        Relation.build("R", ["A1", "A2"], [(value, 2), (3, 4)]),
        Relation.build("P", ["B1"], [(value,), (3,)]),
    )


class TestCreatePayload:
    def test_builtin_roundtrip(self):
        spec = parse_create_payload(
            {"workload": "tpch/join1", "strategy": "l2s", "seed": 7}
        )
        assert spec.instance_spec["builtin"]["name"] == "tpch/join1"
        assert spec.strategy == "L2S"
        assert spec.seed == 7
        assert spec.instance is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(BadRequest):
            parse_create_payload({"workload": "tpch/join9"})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(BadRequest):
            parse_create_payload(
                {"workload": "tpch/join1", "strategy": "XXL"}
            )

    def test_workload_and_csv_mutually_exclusive(self):
        with pytest.raises(BadRequest):
            parse_create_payload({})
        with pytest.raises(BadRequest):
            parse_create_payload(
                {
                    "workload": "tpch/join1",
                    "csv": {"left": {}, "right": {}},
                }
            )

    def test_csv_upload_parsed(self):
        spec = parse_create_payload(
            {
                "csv": {
                    "left": {"name": "R", "text": "A1,A2\n1,2\n"},
                    "right": {"name": "P", "text": "B1\n1\n"},
                },
                "infer_types": True,
            }
        )
        assert spec.instance is not None
        assert spec.instance.left.rows == ((1, 2),)
        assert "inline" in spec.instance_spec

    def test_csv_without_header_rejected(self):
        with pytest.raises(BadRequest):
            parse_create_payload(
                {
                    "csv": {
                        "left": {"name": "R", "text": ""},
                        "right": {"name": "P", "text": "B1\n1\n"},
                    }
                }
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(BadRequest):
            parse_create_payload(
                {"workload": "tpch/join1", "max_questions": -1}
            )


class TestAnswerPayload:
    def test_valid(self):
        assert parse_answer_payload(
            {"question_id": 3, "label": "+"}
        ) == (3, Label.POSITIVE)

    @pytest.mark.parametrize(
        "payload",
        [
            {"question_id": "3", "label": "+"},
            {"question_id": True, "label": "+"},
            {"label": "+"},
            {"question_id": 0, "label": "positive"},
            {"question_id": 0, "label": 1},
            {"question_id": 0},
            "not a dict",
        ],
    )
    def test_invalid(self, payload):
        with pytest.raises(BadRequest):
            parse_answer_payload(payload)

    def test_parse_label_matches_serializer_strictness(self):
        assert parse_label("-") is Label.NEGATIVE
        with pytest.raises(BadRequest):
            parse_label("negative")


class TestIndexCache:
    def test_value_identical_instances_share_index(self):
        cache = IndexCache()
        index_a, hit_a = lookup(cache, small_instance())
        index_b, hit_b = lookup(cache, small_instance())
        assert index_a is index_b
        assert (hit_a, hit_b) == (False, True)
        assert cache.hit_ratio == 0.5

    def test_cell_types_distinguish_instances(self):
        one = Instance(
            Relation.build("R", ["A1"], [(1,)]),
            Relation.build("P", ["B1"], [(1,)]),
        )
        one_str = Instance(
            Relation.build("R", ["A1"], [("1",)]),
            Relation.build("P", ["B1"], [("1",)]),
        )
        assert instance_fingerprint(one) != instance_fingerprint(one_str)

    def test_bool_and_int_cells_distinguished(self):
        true_inst = Instance(
            Relation.build("R", ["A1"], [(True,)]),
            Relation.build("P", ["B1"], [(True,)]),
        )
        int_inst = Instance(
            Relation.build("R", ["A1"], [(1,)]),
            Relation.build("P", ["B1"], [(1,)]),
        )
        assert instance_fingerprint(true_inst) != instance_fingerprint(
            int_inst
        )

    def test_mixed_column_cells_distinguished(self):
        """A column holding both 1 and "1" tags each cell: which row
        holds which type still changes the hash, and the mixed column
        never collides with a uniformly typed one."""

        def instance(*cells):
            return Instance(
                Relation.build(
                    "R", ["A1", "A2"], [(cell, i) for i, cell in enumerate(cells)]
                ),
                Relation.build("P", ["B1"], [(1,)]),
            )

        mixed = instance(1, "1")
        assert instance_fingerprint(mixed) == instance_fingerprint(
            instance(1, "1")
        )
        assert instance_fingerprint(mixed) != instance_fingerprint(
            instance("1", 1)
        )
        assert instance_fingerprint(mixed) != instance_fingerprint(
            instance(1, 1)
        )
        assert instance_fingerprint(mixed) != instance_fingerprint(
            instance("1", "1")
        )
        assert instance_fingerprint(instance(True, 1)) != instance_fingerprint(
            instance(1, 1)
        )

    def test_lru_eviction(self):
        cache = IndexCache(capacity=2)
        lookup(cache, small_instance(1))
        lookup(cache, small_instance(2))
        lookup(cache, small_instance(1))  # touch 1 → 2 is LRU
        lookup(cache, small_instance(5))  # evicts 2
        assert len(cache) == 2
        _, hit = lookup(cache, small_instance(2))
        assert not hit

    def test_builtin_workload_fingerprint_deterministic(self):
        a = builtin_instance("synthetic/1", seed=3)
        b = builtin_instance("synthetic/1", seed=3)
        assert instance_fingerprint(a) == instance_fingerprint(b)
        c = builtin_instance("synthetic/1", seed=4)
        assert instance_fingerprint(a) != instance_fingerprint(c)


def make_manager(**kwargs):
    kwargs.setdefault("index_cache", IndexCache())
    return SessionManager(**kwargs)


def csv_spec(value=1, strategy="TD", seed=0, max_questions=None):
    return parse_create_payload(
        {
            "csv": {
                "left": {"name": "R", "text": f"A1,A2\n{value},2\n3,4\n"},
                "right": {"name": "P", "text": f"B1\n{value}\n3\n"},
            },
            "infer_types": True,
            "strategy": strategy,
            "seed": seed,
            "max_questions": max_questions,
        }
    )


class TestSessionManager:
    def test_create_get_delete(self):
        manager = make_manager()
        managed = asyncio.run(manager.create_async(csv_spec()))
        assert asyncio.run(manager.get_async(managed.session_id)) is managed
        asyncio.run(manager.delete_async(managed.session_id))
        with pytest.raises(NotFound):
            asyncio.run(manager.get_async(managed.session_id))
        with pytest.raises(NotFound):
            asyncio.run(manager.delete_async(managed.session_id))

    def test_capacity_limit(self):
        manager = make_manager(max_sessions=2)
        asyncio.run(manager.create_async(csv_spec(1)))
        asyncio.run(manager.create_async(csv_spec(2)))
        with pytest.raises(CapacityExceeded):
            asyncio.run(manager.create_async(csv_spec(3)))

    def test_ttl_eviction_uses_idle_time(self):
        now = [0.0]
        manager = make_manager(
            ttl_seconds=10.0, clock=lambda: now[0]
        )
        stale = asyncio.run(manager.create_async(csv_spec(1)))
        now[0] = 6.0
        fresh = asyncio.run(manager.create_async(csv_spec(2)))
        # touch: resets the idle clock
        asyncio.run(manager.get_async(stale.session_id))
        now[0] = 12.0
        assert {m.session_id for m in manager.list_sessions()} == {
            stale.session_id,
            fresh.session_id,
        }
        now[0] = 25.0
        assert manager.list_sessions() == []
        assert manager.stats()["expired_total"] == 2

    def test_sessions_on_same_data_share_index(self):
        manager = make_manager()
        a = asyncio.run(manager.create_async(csv_spec(1)))
        b = asyncio.run(
            manager.create_async(csv_spec(1, strategy="BU", seed=9))
        )
        assert a.session.index is b.session.index
        assert not a.cache_hit and b.cache_hit
        assert a.session.state is not b.session.state

    def test_manager_snapshot_resume_round_trip(self):
        manager = make_manager()
        managed = asyncio.run(
            manager.create_async(csv_spec(1, strategy="BU"))
        )
        session = managed.session
        question = session.propose()
        session.answer(question.question_id, Label.NEGATIVE)
        payload = manager.snapshot(managed)
        assert payload["kind"] == "session_snapshot"
        resumed = asyncio.run(manager.resume_async(payload))
        assert resumed.session_id != managed.session_id
        assert (
            resumed.session.state.labeled_classes()
            == session.state.labeled_classes()
        )
        assert resumed.session.index is session.index  # cache hit
        assert resumed.cache_hit

    def test_resume_rejects_garbage(self):
        manager = make_manager()
        with pytest.raises(BadRequest):
            asyncio.run(manager.resume_async({"instance": {"builtin": {}}}))
        with pytest.raises(BadRequest):
            asyncio.run(manager.resume_async({"nonsense": True}))


class TestAppRouting:
    """Routing-level behaviour without a socket."""

    def dispatch(self, app, method, path, payload=None):
        return asyncio.run(app.dispatch(method, path, payload))

    def test_unknown_session_is_404(self):
        app = ServiceApp(make_manager())
        status, body = self.dispatch(app, "GET", "/sessions/nope")
        assert status == 404
        assert body["error"] == "not_found"

    def test_unknown_route_is_404(self):
        app = ServiceApp(make_manager())
        status, _ = self.dispatch(app, "GET", "/frobnicate")
        assert status == 404

    def test_stats_route(self):
        app = ServiceApp(make_manager())
        status, body = self.dispatch(app, "GET", "/stats")
        assert status == 200
        assert body["index_cache"]["hits"] == 0

    def test_create_question_answer_flow(self):
        app = ServiceApp(make_manager())
        status, created = self.dispatch(
            app,
            "POST",
            "/sessions",
            {
                "csv": {
                    "left": {"name": "R", "text": "A1,A2\n1,2\n3,4\n"},
                    "right": {"name": "P", "text": "B1\n1\n3\n"},
                },
                "infer_types": True,
                "strategy": "BU",
            },
        )
        assert status == 201
        sid = created["session_id"]
        status, question = self.dispatch(
            app, "GET", f"/sessions/{sid}/question"
        )
        assert status == 200 and not question["done"]
        # Wrong question id → conflict, session unharmed.
        status, body = self.dispatch(
            app,
            "POST",
            f"/sessions/{sid}/answer",
            {"question_id": question["question_id"] + 5, "label": "+"},
        )
        assert status == 409
        status, body = self.dispatch(
            app,
            "POST",
            f"/sessions/{sid}/answer",
            {"question_id": question["question_id"], "label": "-"},
        )
        assert status == 200
        assert body["progress"]["interactions"] == 1
        status, body = self.dispatch(
            app, "GET", f"/sessions/{sid}/predicate"
        )
        assert status == 200 and "predicate" in body

    def test_bad_label_is_400_not_silent_negative(self):
        app = ServiceApp(make_manager())
        _, created = self.dispatch(
            app,
            "POST",
            "/sessions",
            {
                "csv": {
                    "left": {"name": "R", "text": "A1\n1\n2\n"},
                    "right": {"name": "P", "text": "B1\n1\n2\n"},
                },
                "infer_types": True,
            },
        )
        sid = created["session_id"]
        _, question = self.dispatch(
            app, "GET", f"/sessions/{sid}/question"
        )
        status, body = self.dispatch(
            app,
            "POST",
            f"/sessions/{sid}/answer",
            {"question_id": question["question_id"], "label": "negative"},
        )
        assert status == 400
        _, info = self.dispatch(app, "GET", f"/sessions/{sid}")
        assert info["progress"]["interactions"] == 0


class TestHardening:
    """Regressions for review findings: malformed input must be a clean
    4xx, and a full server must reject before doing expensive work."""

    def test_boolean_ints_rejected(self):
        with pytest.raises(BadRequest):
            parse_create_payload(
                {"workload": "tpch/join1", "seed": True}
            )
        with pytest.raises(BadRequest):
            parse_create_payload(
                {"workload": "tpch/join1", "max_questions": False}
            )

    def test_ragged_csv_is_bad_request_with_type_inference(self):
        for infer_types in (False, True):
            with pytest.raises(BadRequest):
                parse_create_payload(
                    {
                        "csv": {
                            "left": {"name": "R", "text": "A,B\n1\n"},
                            "right": {"name": "P", "text": "C\n1\n"},
                        },
                        "infer_types": infer_types,
                    }
                )

    def test_full_server_rejects_before_building_index(self):
        calls = []

        class CountingCache(IndexCache):
            async def get_or_build_keyed_async(self, key, *args):
                calls.append(key)
                return await super().get_or_build_keyed_async(key, *args)

        manager = make_manager(
            index_cache=CountingCache(), max_sessions=1
        )
        asyncio.run(manager.create_async(csv_spec(1)))
        assert len(calls) == 1
        with pytest.raises(CapacityExceeded):
            asyncio.run(manager.create_async(csv_spec(2)))
        with pytest.raises(CapacityExceeded):
            asyncio.run(
                manager.resume_async(
                    {"instance": {"inline": {}}, "labeled": []}
                )
            )
        assert len(calls) == 1  # neither rejected request built anything

    def test_malformed_content_length_gets_400(self):
        import socket

        from repro.service import ServiceServer

        with ServiceServer() as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /stats HTTP/1.1\r\n"
                    b"Content-Length: abc\r\n\r\n"
                )
                response = sock.recv(4096)
        assert response.startswith(b"HTTP/1.1 400")

    def test_null_seed_materialises_so_snapshots_resume(self):
        spec = parse_create_payload(
            {"workload": "tpch/join1", "seed": None}
        )
        assert isinstance(spec.seed, int)

    def test_builtin_cache_hit_skips_regeneration(self, monkeypatch):
        import repro.service.protocol as protocol_module

        calls = []
        real = protocol_module.builtin_instance

        def counting(name, seed=0, scale=1.0):
            calls.append(name)
            return real(name, seed=seed, scale=scale)

        monkeypatch.setattr(
            protocol_module, "builtin_instance", counting
        )
        manager = make_manager()
        spec = parse_create_payload(
            {"workload": "synthetic/1", "seed": 0}
        )
        first = asyncio.run(manager.create_async(spec))
        second = asyncio.run(manager.create_async(spec))
        assert len(calls) == 1  # hit served without regenerating
        assert second.session.instance is first.session.instance
        assert second.session.index is first.session.index

    def test_csv_error_reports_physical_line_number(self):
        from repro.relational import read_csv_text

        with pytest.raises(ValueError, match="line 4"):
            read_csv_text("A,B\n1,2\n\n3\n", "R")
