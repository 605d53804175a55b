"""Tests for the render service: batching, dedup, admission, errors.

These run the real :class:`~repro.service.server.RenderService` at a
tiny scale — the asyncio front-end, the batcher and the response paths
are all exercised in-process, on the serial backend except for one
two-thread (``jobs=2``) run.
"""

import asyncio
import errno
import json
import threading

import pytest

from repro.service.protocol import encode_response, parse_request
from repro.service.server import RenderService, ServeConfig

WORKLOAD = "wolf-640x480"
SCALE = 0.07


def _eval_line(request_id: str, threshold: float) -> str:
    return json.dumps({
        "id": request_id, "op": "eval", "workload": WORKLOAD,
        "frame": 0, "scenario": "patu", "threshold": threshold,
    })


async def _start_service(tmp_path, **overrides) -> RenderService:
    config = ServeConfig(
        scale=SCALE, jobs=1, store_root=str(tmp_path / "store"),
        **overrides,
    )
    service = RenderService(config)
    await service.start()
    return service


async def _request(reader, writer, payload: dict) -> "tuple[dict, bytes]":
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    raw = await reader.readline()
    return json.loads(raw), raw


class TestConcurrentDedup:
    def test_overlapping_lists_plan_shared_jobs_once(self, tmp_path):
        """Satellite invariant: two overlapping job lists submitted
        concurrently coalesce into a plan where every shared EvalJob
        appears exactly once, and every response is byte-identical to
        serial single-request execution."""
        list_a = [_eval_line(f"a{i}", t)
                  for i, t in enumerate([0.3, 0.4, 0.5])]
        list_b = [_eval_line(f"b{i}", t)
                  for i, t in enumerate([0.4, 0.5, 0.6])]
        requests = [parse_request(line) for line in list_a + list_b]
        unique = {r.job for r in requests}

        async def scenario():
            service = RenderService(ServeConfig(
                scale=SCALE, jobs=1,
                store_root=str(tmp_path / "store"),
            ))
            loop = asyncio.get_running_loop()
            # Enqueue both lists *before* the batcher starts: the whole
            # submission drains into one batch, deterministically.
            futures = [loop.create_future() for _ in requests]
            for request, future in zip(requests, futures):
                service._queue.put_nowait((request, future))
            await service.start()
            try:
                return await asyncio.gather(*futures)
            finally:
                await service.aclose()

        payloads = asyncio.run(scenario())

        # exactly one coalesced batch; each shared job planned once
        service_report_jobs = len(unique)
        # (report lives on the context the service executed on; assert
        # through the counters the batch recorded)
        assert len(payloads) == len(requests)
        assert all(p["ok"] for p in payloads)

        # serial single-request reference: a fresh service, one request
        # per batch, same ids -> responses must be byte-identical
        reference = RenderService(ServeConfig(
            scale=SCALE, jobs=1, store_root=str(tmp_path / "ref-store"),
        ))
        try:
            for request, payload in zip(requests, payloads):
                [ref_payload] = reference._execute_batch([request])
                assert encode_response(ref_payload) == \
                    encode_response(payload)
        finally:
            reference.ctx.close()
        assert service_report_jobs == 4  # 0.3 0.4 0.5 0.6

    def test_batch_counters_record_coalescing(self, tmp_path):
        list_a = [_eval_line(f"a{i}", t) for i, t in enumerate([0.3, 0.4])]
        list_b = [_eval_line(f"b{i}", t) for i, t in enumerate([0.4, 0.3])]
        requests = [parse_request(line) for line in list_a + list_b]

        async def scenario():
            service = RenderService(ServeConfig(
                scale=SCALE, jobs=1, store_root=str(tmp_path / "store"),
            ))
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in requests]
            for request, future in zip(requests, futures):
                service._queue.put_nowait((request, future))
            await service.start()
            try:
                await asyncio.gather(*futures)
                report = service.ctx.report
                return service.counters.snapshot(), report
            finally:
                await service.aclose()

        counters, report = asyncio.run(scenario())
        assert counters["batches"] == 1
        assert counters["coalesced_batches"] == 1
        assert counters["batched_requests"] == 4
        assert counters["coalesced_jobs"] == 2  # both duplicates deduped
        assert report.planned == 2  # the two unique design points
        assert report.executed == 2 and report.failed == 0

    def test_concurrent_socket_clients_get_identical_bytes(self, tmp_path):
        """The same overlap driven through real connections: responses
        for the same design point are byte-identical across clients."""

        async def scenario():
            service = await _start_service(tmp_path)
            host, port = service.address
            try:
                async def run_client(prefix: str, thresholds):
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    try:
                        out = {}
                        for i, threshold in enumerate(thresholds):
                            payload, raw = await _request(
                                reader, writer, json.loads(
                                    _eval_line(f"{prefix}{i}", threshold)
                                ),
                            )
                            assert payload["ok"], payload
                            out[threshold] = raw
                        return out
                    finally:
                        writer.close()
                        await writer.wait_closed()

                results = await asyncio.gather(
                    run_client("a", [0.3, 0.4, 0.5]),
                    run_client("b", [0.5, 0.4, 0.3]),
                )
                return results
            finally:
                await service.aclose()

        by_a, by_b = asyncio.run(scenario())

        def canonical(raw: bytes) -> bytes:
            payload = json.loads(raw)
            payload.pop("id")
            return encode_response(payload)

        for threshold in (0.3, 0.4, 0.5):
            assert canonical(by_a[threshold]) == canonical(by_b[threshold])


class TestProcessPool:
    def test_pool_answers_a_coalesced_batch_like_serial(self, tmp_path):
        """A ``jobs=2`` service answers one coalesced eval batch
        byte-identically to ``jobs=1`` and reports the thread backend."""
        requests = [
            parse_request(_eval_line(f"p{i}", t))
            for i, t in enumerate([0.3, 0.5, 0.3, 0.7])
        ]

        async def scenario(jobs: int):
            service = RenderService(ServeConfig(
                scale=SCALE, jobs=jobs,
                store_root=str(tmp_path / f"store-{jobs}"),
            ))
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in requests]
            for request, future in zip(requests, futures):
                service._queue.put_nowait((request, future))
            await service.start()
            try:
                payloads = await asyncio.gather(*futures)
                return payloads, service.stats()
            finally:
                await service.aclose()

        serial, serial_stats = asyncio.run(scenario(1))
        pooled, pool_stats = asyncio.run(scenario(2))
        assert serial_stats["backend"] == "serial"
        assert pool_stats["backend"] == "threads"
        assert pool_stats["coalesced_batches"] == 1
        assert pool_stats["coalesced_jobs"] == 1
        assert all(payload["ok"] for payload in pooled)
        assert [encode_response(p) for p in pooled] == [
            encode_response(p) for p in serial
        ]


class TestFrontEnd:
    def test_ping_stats_render_and_errors(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path)
            host, port = service.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                pong, _ = await _request(
                    reader, writer, {"id": "p", "op": "ping"},
                )
                assert pong["ok"] and pong["pong"] == 1

                # malformed line -> 400, connection survives
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                assert bad["ok"] is False and bad["status"] == 400

                # unknown workload -> typed client error
                missing, _ = await _request(reader, writer, {
                    "id": "m", "op": "eval", "workload": "no-such-game",
                })
                assert missing["ok"] is False
                assert missing["status"] == 404
                assert missing["error"]["type"] == "WorkloadError"

                # render publishes into the sharded store
                rendered, _ = await _request(reader, writer, {
                    "id": "r", "op": "render", "workload": WORKLOAD,
                })
                assert rendered["ok"]
                assert len(rendered["capture"]["digest"]) == 16

                stats, _ = await _request(
                    reader, writer, {"id": "s", "op": "stats"},
                )
                payload = stats["stats"]
                assert payload["backend"] == "serial"
                assert payload["requests"] >= 4
                assert payload["store"]["writes"] >= 1
                assert "shards" in payload
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()

        asyncio.run(scenario())

    def test_ping_is_answered_while_stats_lists_the_store(
        self, tmp_path, monkeypatch
    ):
        """``stats`` lists the store off the event loop: a ping sent
        while a slow listing is still running is answered at once."""
        listing, release, listed = (threading.Event() for _ in range(3))

        async def scenario():
            service = await _start_service(tmp_path)
            shard_stats = service.store.shard_stats

            def slow_shard_stats():
                listing.set()
                release.wait(timeout=5)
                listed.set()
                return shard_stats()

            monkeypatch.setattr(service.store, "shard_stats", slow_shard_stats)
            host, port = service.address
            stats_reader, stats_writer = await asyncio.open_connection(
                host, port
            )
            reader, writer = await asyncio.open_connection(host, port)
            try:
                stats_writer.write(b'{"id": "s", "op": "stats"}\n')
                await stats_writer.drain()
                assert await asyncio.to_thread(listing.wait, 5)
                pong, _ = await asyncio.wait_for(
                    _request(reader, writer, {"id": "p", "op": "ping"}), 5
                )
                assert pong["ok"] and pong["pong"] == 1
                assert not listed.is_set()
                release.set()
                stats = json.loads(
                    await asyncio.wait_for(stats_reader.readline(), 5)
                )
                assert stats["ok"] and "shards" in stats["stats"]
            finally:
                release.set()
                for w in (writer, stats_writer):
                    w.close()
                    await w.wait_closed()
                await service.aclose()

        asyncio.run(scenario())

    def test_admission_overflow_rejects_with_429(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path, max_pending=1)
            host, port = service.address
            service.admission.acquire()  # the only slot is taken
            reader, writer = await asyncio.open_connection(host, port)
            try:
                rejected, _ = await _request(reader, writer, json.loads(
                    _eval_line("r", 0.4)
                ))
                assert rejected["ok"] is False
                assert rejected["status"] == 429
                assert rejected["retry_after_s"] > 0
                assert service.counters.rejected == 1

                service.admission.release()
                admitted, _ = await _request(reader, writer, json.loads(
                    _eval_line("r2", 0.4)
                ))
                assert admitted["ok"], admitted
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()

        asyncio.run(scenario())

    def test_batches_run_on_one_engine_thread(self, tmp_path, monkeypatch):
        threads = []
        execute = RenderService._execute_batch

        def recording(self, requests):
            threads.append(threading.current_thread().name)
            return execute(self, requests)

        monkeypatch.setattr(RenderService, "_execute_batch", recording)

        async def scenario():
            service = await _start_service(tmp_path)
            try:
                for i, threshold in enumerate((0.2, 0.3, 0.4, 0.5, 0.6)):
                    future = asyncio.get_running_loop().create_future()
                    request = parse_request(_eval_line(f"r{i}", threshold))
                    service._queue.put_nowait((request, future))
                    await future  # one batch at a time
            finally:
                await service.aclose()

        asyncio.run(scenario())
        assert len(threads) == 5 and len(set(threads)) == 1, threads

    def test_aclose_closes_the_listening_socket(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path, port=0)
            server = service._server
            assert server.is_serving() and server.sockets
            await service.aclose()
            await service.aclose()  # a second close is a no-op
            assert not server.is_serving()
            assert not server.sockets

        asyncio.run(scenario())

    def test_shutdown_op_stops_the_server(self, tmp_path):
        async def scenario():
            service = await _start_service(tmp_path)
            host, port = service.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                done, _ = await _request(
                    reader, writer, {"id": "x", "op": "shutdown"},
                )
                assert done["ok"] and done["stopping"] is True
                assert service._stopping.is_set()
            finally:
                writer.close()
                await writer.wait_closed()
                await service.aclose()

        asyncio.run(scenario())


def _answer(service: RenderService, payload: dict) -> dict:
    """One request answered as a batch of its own, on this thread."""
    [response] = service._execute_batch([parse_request(json.dumps(payload))])
    return response


class TestRenderIsACaptureJob:
    """``render`` answers from the capture the engine read or rendered."""

    @pytest.mark.parametrize("with_store", [True, False],
                             ids=["store", "no-store"])
    def test_unknown_workload_is_404(self, tmp_path, with_store):
        service = RenderService(ServeConfig(
            scale=SCALE,
            store_root=str(tmp_path / "store") if with_store else None,
        ))
        missing = _answer(service, {
            "id": "r", "op": "render", "workload": "no-such-game",
        })
        assert missing["ok"] is False
        assert missing["status"] == 404
        assert missing["error"]["type"] == "WorkloadError"

    def test_a_failed_put_is_not_replayed_by_the_baseline_eval(
        self, tmp_path, monkeypatch
    ):
        """A render whose store write fails once parks nothing where
        the frame's ``eval baseline@1.0`` looks: all three requests
        answer ``ok``."""
        service = RenderService(ServeConfig(
            scale=SCALE, store_root=str(tmp_path / "store"),
        ))
        put, puts = service.store.put, []

        def put_failing_once(spec, capture):
            puts.append(spec)
            if len(puts) == 1:
                raise OSError(errno.EIO, "injected put failure")
            return put(spec, capture)

        monkeypatch.setattr(service.store, "put", put_failing_once)
        answers = [
            _answer(service, {"id": "r", "op": "render", "workload": WORKLOAD}),
            _answer(service, {
                "id": "b", "op": "eval", "workload": WORKLOAD,
                "scenario": "baseline", "threshold": 1.0,
            }),
            _answer(service, json.loads(_eval_line("p", 0.4))),
        ]
        assert [a["ok"] for a in answers] == [True, True, True], answers
        assert len(puts) == 2


class TestParkedFailures:
    """A failed job stays parked only until the next batch runs."""

    def test_a_failed_put_is_retried_by_the_next_request(
        self, tmp_path, monkeypatch
    ):
        """The first ``eval`` fails on its store write; the same request
        sent again renders and writes once more and answers ``ok``."""
        service = RenderService(ServeConfig(
            scale=SCALE, store_root=str(tmp_path / "store"),
        ))
        put, puts = service.store.put, []

        def put_failing_once(spec, capture):
            puts.append(spec)
            if len(puts) == 1:
                raise OSError(errno.EIO, "injected put failure")
            return put(spec, capture)

        monkeypatch.setattr(service.store, "put", put_failing_once)
        answers = [
            _answer(service, json.loads(_eval_line(f"p{i}", 0.4)))
            for i in range(3)
        ]
        assert [a["ok"] for a in answers] == [False, True, True], answers
        assert answers[0]["status"] == 500
        assert "injected put failure" in answers[0]["error"]["message"]
        assert answers[1]["metrics"] == answers[2]["metrics"]
        assert len(puts) == 2

    def test_failing_requests_leave_one_batch_parked(self):
        service = RenderService(ServeConfig(scale=SCALE))
        for i in range(100):
            op = "render" if i % 2 else "eval"
            payload = {"id": str(i), "op": op, "workload": f"no-such-{i}"}
            if op == "eval":
                payload.update(scenario="patu", threshold=0.4)
            assert _answer(service, payload)["status"] == 404
            assert len(service.ctx._failed) <= 1
