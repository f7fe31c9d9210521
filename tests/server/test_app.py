"""The ASGI app end to end: endpoints, jobs, and the asyncio HTTP bridge."""

import asyncio
import json
import pickle
import threading
import time

import pytest

from repro.analysis.request import (
    MAX_CELLS,
    MAX_WORD_BITS,
    MAX_WORKERS,
    CampaignRequest,
    RequestError,
    execute_request,
)
from repro.faults.universe import UniverseSpec
from repro.server import (
    JobManager,
    ReproApp,
    ResultCache,
    TestClient,
    create_app,
)
from repro.server.http import serve


@pytest.fixture()
def client():
    app = create_app(cache=ResultCache())
    yield TestClient(app)
    app.close()


class TestSchemes:
    def test_lists_every_selector(self, client):
        payload = client.get("/schemes").json()
        selectors = {s["test"] for s in payload["schemes"]}
        assert {"mats", "mats+", "march-c", "march-b", "prt3", "prt5",
                "dual-port", "quad-port", "dual-schedule",
                "quad-schedule"} == selectors
        assert payload["engines"] == ["auto", "compiled", "batched",
                                      "interpreted"]
        assert "backends" not in payload

    def test_post_is_405(self, client):
        assert client.post("/schemes", {}).status == 405


class TestStatsEndpoint:
    def test_cache_and_job_telemetry(self, client):
        cold = client.get("/stats").json()
        assert cold["cache"]["hits"] == 0
        assert cold["cache"]["evictions"] == 0
        assert cold["cache"]["disk_promotions"] == 0
        assert cold["jobs"] == {"queued": 0, "running": 0, "done": 0,
                                "error": 0, "tracked": 0}

        body = {"test": "mats", "n": 8}
        client.post("/coverage", body)
        client.post("/coverage", body)  # cache hit
        job = client.post("/jobs", {"kind": "coverage",
                                    "request": body}).json()
        client.app.jobs.wait(job["id"])
        warm = client.get("/stats").json()
        assert warm["cache"]["hits"] >= 2  # repeat POST + the job
        assert warm["cache"]["misses"] >= 1
        assert warm["jobs"]["done"] == 1
        assert warm["jobs"]["tracked"] == 1

    def test_disk_promotions_surface(self, tmp_path):
        cache = ResultCache(maxsize=1, disk_dir=str(tmp_path / "store"))
        app = create_app(cache=cache)
        client = TestClient(app)
        try:
            client.post("/coverage", {"test": "mats", "n": 8})
            client.post("/coverage", {"test": "mats", "n": 12})  # evicts
            client.post("/coverage", {"test": "mats", "n": 8})   # disk hit
            stats = client.get("/stats").json()["cache"]
            assert stats["evictions"] >= 1
            assert stats["disk_promotions"] >= 1
        finally:
            app.close()

    def test_post_is_405(self, client):
        assert client.post("/stats", {}).status == 405


class TestCoverageEndpoint:
    def test_cold_then_cached(self, client):
        body = {"test": "march-c", "n": 24}
        cold = client.post("/coverage", body).json()
        warm = client.post("/coverage", body).json()
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["report"] == cold["report"]
        assert warm["cache_key"] == cold["cache_key"]

    def test_matches_direct_api_call(self, client):
        """The endpoint and run_coverage(request) produce the same report
        through the same resolver."""
        from repro.analysis import run_coverage

        request = CampaignRequest(test="prt3", n=14)
        via_http = client.post("/coverage", {"test": "prt3", "n": 14}).json()
        via_api = run_coverage(request, cache=False)
        assert via_http["report"]["overall"] == via_api.overall
        assert via_http["report"]["test_name"] == via_api.test_name
        assert via_http["request"]["test"] == "prt3"

    def test_validation_errors_are_400(self, client):
        response = client.post("/coverage", {"test": "nope", "n": 8})
        assert response.status == 400
        assert "unknown test" in response.json()["error"]
        response = client.post("/coverage", {"test": "mats"})
        assert response.status == 400
        assert response.json()["field"] == "n"
        response = client.post("/coverage",
                               {"test": "quad-port", "n": 13})
        assert response.status == 400
        assert "even n" in response.json()["error"]
        for body in ({"test": "prt3", "n": 3}, {"test": "dual-port", "n": 2}):
            response = client.post("/coverage", body)
            assert response.status == 400
            assert "needs n >= " in response.json()["error"]
        response = client.post("/coverage",
                               {"test": "mats", "n": 8, "backend": "int"})
        assert response.status == 400
        assert "unknown field(s) ['backend']" in response.json()["error"]

    @pytest.mark.parametrize("workers", [100000, MAX_WORKERS + 1, -1])
    def test_worker_count_out_of_range_is_400(self, client, no_pools,
                                              workers):
        response = client.post("/coverage",
                               {"test": "mats", "n": 8, "workers": workers})
        assert response.status == 400
        assert "workers must be an int in" in response.json()["error"]

    def test_memory_size_past_the_cap_is_400(self, client):
        response = client.post("/coverage",
                               {"test": "march-c", "n": MAX_CELLS + 1})
        assert response.status == 400
        assert f"n must be at most {MAX_CELLS}" in response.json()["error"]

    def test_word_width_past_the_cap_is_400(self, client):
        response = client.post("/coverage", {"test": "dual-port", "n": 64,
                                             "m": MAX_WORD_BITS + 4})
        assert response.status == 400
        assert f"m must be at most {MAX_WORD_BITS}" in \
            response.json()["error"]

    @pytest.mark.parametrize("test", ["prt3", "dual-port"])
    def test_poly_of_the_wrong_degree_is_400(self, client, test):
        response = client.post("/coverage", {"test": test, "n": 16, "m": 1,
                                             "poly": "1+z+z^4"})
        assert response.status == 400
        assert "has degree 4, but m=1" in response.json()["error"]

    def test_boolean_worker_count_is_400(self, client, no_pools):
        response = client.post("/coverage",
                               {"test": "mats", "n": 8, "workers": True})
        assert response.status == 400
        assert response.json()["field"] == "workers"

    def test_default_universe_at_one_cell_is_400(self, client):
        response = client.post("/coverage", {"test": "march-c", "n": 1})
        assert response.status == 400
        assert "needs n >= 2" in response.json()["error"]

    def test_invalid_json_is_400(self, client):
        response = client.request("POST", "/coverage")
        assert response.status == 400  # empty body -> missing fields

    def test_unknown_path_is_404(self, client):
        assert client.get("/nope").status == 404


class TestCompareEndpoint:
    def test_table(self, client):
        response = client.post("/compare",
                               {"tests": ["mats+", "march-c"], "n": 12})
        assert response.status == 200
        rows = response.json()["rows"]
        assert [row["name"] for row in rows] == ["MATS+", "March C-"]
        assert all(row["operations"] > 0 for row in rows)

    def test_shares_the_coverage_cache(self, client):
        client.post("/coverage", {"test": "march-c", "n": 16})
        response = client.post("/compare",
                               {"tests": ["march-c"], "n": 16})
        assert response.status == 200
        stats = client.app.cache.stats()
        assert stats["hits"] >= 1  # compare served from coverage's entry


class TestVerifyEndpoint:
    def test_clean_stream(self, client):
        response = client.post("/verify", {"test": "march-c", "n": 16})
        assert response.status == 200
        payload = response.json()
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["stream"]["records"] > 0
        assert payload["stream"]["digest"]
        assert set(payload["counts"]) == set(
            d["code"] for d in payload["diagnostics"]) or payload["truncated"]

    def test_validation_errors_are_400(self, client):
        response = client.post("/verify", {"test": "nope", "n": 8})
        assert response.status == 400
        assert "unknown test" in response.json()["error"]
        response = client.post("/verify", {"test": "mats"})
        assert response.status == 400
        assert response.json()["field"] == "n"

    def test_get_is_405(self, client):
        assert client.get("/verify").status == 405


class TestJobs:
    def _finish(self, client, job_id):
        job = client.app.jobs.wait(job_id, timeout=30.0)
        assert job is not None
        return client.get(f"/jobs/{job_id}").json()

    def test_submit_poll_result(self, client):
        response = client.post(
            "/jobs", {"kind": "coverage",
                      "request": {"test": "march-c", "n": 16}})
        assert response.status == 202
        submitted = response.json()
        assert submitted["status"] in ("queued", "running")
        final = self._finish(client, submitted["id"])
        assert final["status"] == "done"
        assert final["result"]["report"]["test_name"] == "march-c"
        done, total = (final["progress"]["done"], final["progress"]["total"])
        assert done == total > 0

    def test_compare_job(self, client):
        response = client.post(
            "/jobs", {"kind": "compare",
                      "request": {"tests": ["mats", "mats+"], "n": 8}})
        final = self._finish(client, response.json()["id"])
        assert final["status"] == "done"
        assert [row["name"] for row in final["result"]["rows"]] == [
            "MATS", "MATS+"]

    def test_invalid_job_is_rejected_up_front(self, client):
        response = client.post(
            "/jobs", {"kind": "coverage", "request": {"test": "nope",
                                                      "n": 8}})
        assert response.status == 400
        response = client.post("/jobs", {"kind": "frobnicate",
                                         "request": {}})
        assert response.status == 400

    def test_unknown_job_is_404(self, client):
        assert client.get("/jobs/job-999").status == 404
        assert client.get("/jobs/job-999/stream").status == 404

    def test_stream_ends_with_the_final_state(self, client):
        response = client.post(
            "/jobs", {"kind": "coverage",
                      "request": {"test": "mats", "n": 12}})
        job_id = response.json()["id"]
        stream = client.get(f"/jobs/{job_id}/stream")
        assert stream.status == 200
        assert stream.headers["content-type"] == "application/x-ndjson"
        records = stream.ndjson()
        assert records[-1]["status"] == "done"
        assert all(record["id"] == job_id for record in records)


class TestJobManager:
    def test_history_bound_drops_only_finished_jobs(self):
        manager = JobManager(cache=ResultCache(), history=2)
        try:
            jobs = []
            for _ in range(4):  # one at a time: the live queue is bounded
                jobs.append(manager.submit_coverage(
                    CampaignRequest(test="mats", n=8)))
                manager.wait(jobs[-1].id, timeout=30.0)
            manager.submit_coverage(CampaignRequest(test="mats", n=10))
            assert manager.get(jobs[0].id) is None  # aged out
        finally:
            manager.close()

    def test_full_queue_answers_429_until_a_job_finishes(self):
        manager = JobManager(cache=ResultCache(), history=2)
        permits = threading.Semaphore(0)

        def blocked(job, request):
            job.status = "running"
            permits.acquire(timeout=30.0)
            manager._finish(job, result={})

        manager._run_coverage = blocked
        client = TestClient(ReproApp(cache=manager.cache,
                                     job_manager=manager))
        body = {"kind": "coverage", "request": {"test": "mats", "n": 8}}
        try:
            assert [client.post("/jobs", body).status
                    for _ in range(2)] == [202, 202]
            refused = client.post("/jobs", body)
            assert refused.status == 429
            assert refused.headers["retry-after"] == "1"
            assert "queued or running" in refused.json()["error"]
            permits.release()
            deadline = time.monotonic() + 30.0
            while not manager.stats()["done"] \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.post("/jobs", body).status == 202
        finally:
            permits.release(3)
            manager.close()

    def test_error_jobs_carry_the_message(self, monkeypatch):
        import repro.server.jobs as jobs_module

        def boom(request, cache=None, progress=None, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(jobs_module, "execute_request", boom)
        manager = JobManager(cache=ResultCache())
        try:
            job = manager.submit_coverage(CampaignRequest(test="mats", n=8))
            final = manager.wait(job.id, timeout=30.0)
            assert final.status == "error"
            assert "engine exploded" in final.error
            assert "error" in final.to_dict()
        finally:
            manager.close()


# (request n, generator, kwargs): each spec must be refused as a request
# error, never raise out of the app, never run on cells it lacks.
_MALFORMED_SPECS = [
    (16, "coupling", {"n": 40}),
    (32, "coupling", {"n": 40}),
    (16, "coupling", {"n": "x"}),
    (16, "coupling", {"n": 10**9}),
    (16, "coupling", {"n": 16, "m": 8}),
    (16, "coupling", {"bogus": 1}),
    (16, "coupling", {"n": 16, "bogus": 1}),
    (16, "single_cell", {"n": -3}),
    (16, "single_cell", {"n": 40}),
    (16, "single_cell", {"n": True}),
    (16, "coupling", {"n": 1}),  # the generator's own two-cell floor
]


@pytest.mark.parametrize("n, generator, kwargs", _MALFORMED_SPECS)
def test_malformed_universe_spec_is_a_request_error(n, generator, kwargs):
    spec = UniverseSpec(generator, kwargs=tuple(sorted(kwargs.items())))
    with pytest.raises(RequestError, match="universe spec"):
        execute_request(CampaignRequest(test="march-c", n=n, universe=spec),
                        cache=False)
    app = create_app(cache=ResultCache())
    try:
        response = TestClient(app).post("/coverage", {
            "test": "march-c", "n": n,
            "universe": {"generator": generator, "kwargs": kwargs}})
    finally:
        app.close()
    assert response.status == 400
    assert "universe spec" in response.json()["error"]


class TestCacheIntegration:
    def test_endpoint_report_byte_identical_to_api(self):
        """One shared cache entry serves HTTP and run_coverage alike."""
        from repro.analysis import run_coverage

        cache = ResultCache()
        app = create_app(cache=cache)
        try:
            client = TestClient(app)
            client.post("/coverage", {"test": "march-c", "n": 20})
            report = run_coverage(CampaignRequest(test="march-c", n=20),
                                  cache=cache)
            rerun = run_coverage(CampaignRequest(test="march-c", n=20),
                                 cache=cache)
            assert pickle.dumps(report) == pickle.dumps(rerun)
            assert cache.stats()["hits"] >= 2
        finally:
            app.close()


class TestHttpBridge:
    """python -m repro.server's asyncio HTTP/1.1 adapter, over real sockets."""

    def _roundtrip(self, raw_requests):
        async def main():
            app = create_app(cache=ResultCache())
            server = await serve(app, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            responses = []
            try:
                for raw in raw_requests:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(raw)
                    await writer.drain()
                    responses.append(await reader.read())
                    writer.close()
                    await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                app.close()
            return responses

        return asyncio.run(main())

    @staticmethod
    def _post(path, payload):
        body = json.dumps(payload).encode()
        return (f"POST {path} HTTP/1.1\r\nhost: t\r\n"
                f"content-type: application/json\r\n"
                f"content-length: {len(body)}\r\n\r\n").encode() + body

    def test_get_and_post(self):
        responses = self._roundtrip([
            b"GET /schemes HTTP/1.1\r\nhost: t\r\n\r\n",
            self._post("/coverage", {"test": "mats", "n": 8}),
            b"GET /missing HTTP/1.1\r\nhost: t\r\n\r\n",
            b"BROKEN\r\n\r\n",
        ])
        schemes, coverage, missing, broken = responses
        assert schemes.startswith(b"HTTP/1.1 200 OK\r\n")
        head, _, body = coverage.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"connection: close" in head
        assert json.loads(body)["report"]["test_name"] == "mats"
        assert missing.startswith(b"HTTP/1.1 404")
        assert broken.startswith(b"HTTP/1.1 400")

    def test_streaming_is_chunked(self):
        submit = self._post("/jobs", {"kind": "coverage",
                                      "request": {"test": "mats", "n": 8}})
        # Submit and stream must share one app instance, so do both in
        # one _roundtrip batch: the stream request polls until done.
        responses = self._roundtrip([
            submit,
            b"GET /jobs/job-1/stream HTTP/1.1\r\nhost: t\r\n\r\n",
        ])
        head, _, body = responses[1].partition(b"\r\n\r\n")
        assert b"transfer-encoding: chunked" in head.lower()
        chunks, rest = [], body
        while rest:
            size_text, _, rest = rest.partition(b"\r\n")
            size = int(size_text, 16)
            if size == 0:
                break
            chunks.append(rest[:size])
            rest = rest[size + 2:]
        records = [json.loads(line)
                   for line in b"".join(chunks).splitlines() if line]
        assert records[-1]["status"] == "done"


class TestMainModule:
    def test_parser_defaults(self):
        from repro.server.__main__ import build_parser

        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8714
        assert args.cache_dir is None
        args = build_parser().parse_args(
            ["--port", "9000", "--cache-dir", "/tmp/c", "--cache-size", "9"])
        assert (args.port, args.cache_dir, args.cache_size) == (
            9000, "/tmp/c", 9)
