"""Graceful-drain semantics: shedding, parking, and identical resume.

The contract under test (S2): a drain mid-exploration must exit
cleanly with the job parked as ``pending`` on a committed checkpoint,
and a restarted server must finish it with a Pareto front identical to
an uninterrupted run — the operator can bounce the service without
changing any answer.
"""

import json
import threading
import time

import pytest

import repro
from repro.obs.metrics import metrics
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.serve.client import RetryPolicy, ServeError


def _front(points):
    """Order-independent fingerprint of a Pareto front."""
    return sorted(
        (p["power"], p["service"], tuple(p["dropped"])) for p in points
    )


class TestShedding:
    def test_draining_sheds_compute_with_honest_retry_after(
        self, server, client, bundle
    ):
        # Flip the flag directly: this is the mid-drain window before
        # the accept loop stops, which drain() itself closes too fast
        # to probe over HTTP.
        server._draining = True
        try:
            with pytest.raises(ServeError) as excinfo:
                client.analyze(bundle)
            assert excinfo.value.status == 503
            assert (excinfo.value.retry_after or 0) >= 1
            # Health stays served so orchestrators see the state change.
            assert client.healthz()["status"] == "draining"
            assert client.metrics()["metrics"] is not None
        finally:
            server._draining = False
        assert client.analyze(bundle)["kind"] == "analysis"

    def test_retrying_client_rides_out_transient_drain(
        self, server, client, bundle
    ):
        server._draining = True
        timer = threading.Timer(
            0.4, lambda: setattr(server, "_draining", False)
        )
        timer.start()
        retrying = ServeClient(
            server.url,
            timeout=120.0,
            retry=RetryPolicy(retries=6, backoff_base=0.1, jitter=0.0),
        )
        retries_before = metrics().counter("client.retries").value
        try:
            result = retrying.analyze(bundle)
        finally:
            timer.cancel()
            server._draining = False
            retrying.close()
        assert result["kind"] == "analysis"
        assert metrics().counter("client.retries").value > retries_before


class TestParkAndResume:
    def test_drain_parks_running_job_and_restart_finishes_it(
        self, tmp_path, bundle
    ):
        state = tmp_path / "state"
        # Generations sized so the job is still running when the drain
        # reaches the job store (the HTTP and pool stages ahead of
        # it take up to ~2s; the toy system runs ~170 generations/s).
        params = dict(generations=800, population=8, seed=3,
                      checkpoint_every=1)

        def make_server():
            instance = ReproServer(
                ServeConfig(
                    port=0,
                    workers=2,
                    queue_size=16,
                    job_workers=1,
                    state_dir=str(state),
                )
            )
            instance.start()
            return instance

        server = make_server()
        client = ServeClient(server.url, timeout=120.0)
        try:
            job_id = client.explore(bundle, **params)["id"]
            # The job record only publishes checkpoint_generation once
            # the run ends; watch the checkpoint files directly.
            ckpt_dir = state / job_id / "ckpt"
            deadline = time.monotonic() + 60.0
            while not list(ckpt_dir.glob("checkpoint-*.json")):
                assert time.monotonic() < deadline, "no checkpoint committed"
                time.sleep(0.02)
            assert server.drain(timeout=60.0) is True
        finally:
            client.close()
            server.close()

        on_disk = json.loads((state / job_id / "job.json").read_text())
        assert on_disk["status"] == "pending", (
            f"drain must park the running job, got {on_disk['status']}"
        )
        assert on_disk["checkpoint_generation"] >= 1

        # Restart over the same state dir: recovery requeues the parked
        # job and checkpoint resume continues the same trajectory.
        server = make_server()
        client = ServeClient(server.url, timeout=120.0)
        try:
            final = client.wait_job(job_id, timeout=300.0)
        finally:
            client.close()
            server.close()
        assert final["status"] == "done"
        assert final["restarts"] >= 1
        assert final["result"]["generations_run"] == params["generations"]

        reference = repro.explore(
            repro.dse.ExploreRequest.from_options(
                bundle,
                generations=params["generations"],
                population=params["population"],
                seed=params["seed"],
            )
        )
        assert _front(final["result"]["pareto"]) == _front(
            [
                {
                    "power": p.power,
                    "service": p.service,
                    "dropped": list(p.dropped),
                }
                for p in reference.pareto
            ]
        ), "resumed run must match the uninterrupted reference exactly"

    def test_idle_drain_is_clean_and_idempotent(self, tmp_path):
        server = ReproServer(
            ServeConfig(port=0, workers=1, queue_size=4,
                        state_dir=str(tmp_path / "state"))
        )
        server.start()
        drains_before = metrics().counter("serve.drains").value
        assert server.drain(timeout=10.0) is True
        # A second drain is a no-op, not a crash or a double-count.
        assert server.drain(timeout=10.0) is True
        assert metrics().counter("serve.drains").value == drains_before + 1
        server.close()
