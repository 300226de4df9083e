"""End-to-end tracing and Prometheus exposition over HTTP.

Server and client live in one process here, so the process-global
tracer sees both halves of every exchange — which is exactly what lets
these tests assert that ONE trace id flows client → server → response
header.
"""

import json
import urllib.request

import pytest

from repro.obs.metrics import metrics
from repro.obs.trace import RESPONSE_TRACE_HEADER, tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracer().reset()
    yield
    tracer().reset()


@pytest.fixture
def sink():
    records = []
    tracer().enable(records.append)
    return records


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


class TestTracePropagation:
    def test_round_trip_carries_one_trace_id(self, client, bundle, sink):
        client.analyze(bundle)
        assert client.last_trace_id is not None
        by_name = {}
        for record in sink:
            by_name.setdefault(record.get("span"), []).append(record)
        client_span = by_name["client.request"][0]
        serve_span = by_name["serve.request"][0]
        api_span = by_name["api.analyze"][0]
        # One trace id end to end, and it is the one the header reported.
        assert client_span["trace_id"] == client.last_trace_id
        assert serve_span["trace_id"] == client.last_trace_id
        assert api_span["trace_id"] == client.last_trace_id
        # The server parented its request span on the client's span.
        assert serve_span["parent_id"] == client_span["span_id"]
        assert api_span["parent_id"] == serve_span["span_id"]
        assert client_span["attrs"]["served_trace_id"] == client.last_trace_id

    def test_pool_handoff_keeps_request_trace(self, client, bundle, sink):
        client.analyze(bundle)
        analysis_spans = [r for r in sink if r.get("span") == "analysis.run"]
        assert analysis_spans, "analysis should run under tracing"
        assert {r["trace_id"] for r in analysis_spans} == {
            client.last_trace_id
        }

    def test_explore_job_continues_request_trace(self, client, bundle, sink):
        stub = client.explore(bundle, generations=1, population=4, seed=5)
        submit_trace = client.last_trace_id
        record = client.wait_job(stub["id"], timeout=120.0)
        assert record["status"] == "done"
        job_spans = [r for r in sink if r.get("span") == "serve.job"]
        assert {r["trace_id"] for r in job_spans} == {submit_trace}
        dse_spans = [r for r in sink if r.get("span") == "dse.run"]
        assert {r["trace_id"] for r in dse_spans} == {submit_trace}

    def test_tracing_off_means_no_header(self, client, bundle):
        assert not tracer().enabled
        client.analyze(bundle)
        assert client.last_trace_id is None

    def test_error_responses_still_carry_trace_header(
        self, server, client, bundle, sink
    ):
        import urllib.error

        request = urllib.request.Request(
            server.url + "/nope", method="GET"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 404
        # 404 happens before dispatch opens a span: no stale header from
        # a previous request on the connection may leak in.
        assert excinfo.value.headers.get(RESPONSE_TRACE_HEADER) is None


class TestPrometheusEndpoint:
    def test_prometheus_format(self, server, client, bundle):
        client.analyze(bundle)
        status, headers, body = _get(server.url + "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        lines = body.splitlines()
        assert any(l.startswith("# TYPE repro_") for l in lines)
        assert any(l.startswith("repro_serve_requests_analyze_total ") for l in lines)
        assert any(l.startswith("repro_uptime_seconds ") for l in lines)
        assert any(l.startswith('repro_jobs{state="done"}') for l in lines)
        # Summary series from the request timer.
        assert any("repro_serve_latency_analyze_sum" in l for l in lines)
        assert any("repro_serve_latency_analyze_count" in l for l in lines)

    def test_histogram_quantiles_exposed(self, server):
        metrics().histogram("serve.test_lat", buckets=(1.0, 5.0)).observe(0.5)
        metrics().histogram("serve.test_lat").observe(3.0)
        _status, _headers, body = _get(
            server.url + "/metrics?format=prometheus"
        )
        assert 'repro_serve_test_lat_bucket{le="1"} 1' in body
        assert 'repro_serve_test_lat_bucket{le="+Inf"} 2' in body
        assert "repro_serve_test_lat_p50 " in body

    def test_default_metrics_stays_json(self, server, client, bundle):
        client.analyze(bundle)
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert "metrics" in payload and "schedule_cache" in payload

    def test_unknown_format_falls_back_to_json(self, server):
        status, headers, _body = _get(server.url + "/metrics?format=bogus")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
