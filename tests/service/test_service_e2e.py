"""End-to-end: a live server, the blocking client, and the CLI.

Covers the acceptance criteria: a served artifact is byte-identical to
``repro reproduce`` for the same seed, and two concurrent identical
submissions execute the underlying work exactly once (verified through
scheduler stats).
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceError,
    ServiceInThread,
)


@pytest.fixture(scope="module")
def service():
    with ServiceInThread(workers=1, queue_depth=16) as handle:
        yield handle


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


class GatedJob:
    """Occupies the single worker until the test releases it."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.started.set()
        assert self.release.wait(timeout=30)
        return {"ok": True}


def occupy_worker(service, token):
    """Run a gated job on the service's worker; returns the gate."""
    gated = GatedJob()

    async def submit():
        return service.scheduler.submit(
            token=token, kind="plan", description="test gate", run=gated
        )

    asyncio.run_coroutine_threadsafe(submit(), service.loop).result(timeout=10)
    assert gated.started.wait(timeout=10)
    return gated


class TestBasics:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert "jobs" in health

    def test_list_artifacts(self, client):
        artifacts = client.list_artifacts()
        ids = {a["id"] for a in artifacts}
        assert "figure4" in ids
        assert "ext:sampling" in ids
        assert all(a["description"] for a in artifacts)

    def test_unknown_artifact_is_a_structured_error(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_artifact("figure99")
        assert err.value.code == "unknown-artifact"

    def test_unknown_job_is_a_structured_error(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-0-missing")
        assert err.value.code == "unknown-job"

    @pytest.mark.parametrize("op", ["fleet-status", "fleet-drain"])
    def test_fleet_ops_are_unknown(self, client, op):
        with pytest.raises(ServiceError) as err:
            client.call(op)
        assert err.value.code == "unknown-op"

    def test_newer_protocol_version_rejected(self, service):
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as raw:
            raw.sendall(
                json.dumps({"v": PROTOCOL_VERSION + 1, "op": "health"}).encode()
                + b"\n"
            )
            answer = json.loads(raw.makefile("rb").readline())
        assert answer["ok"] is False
        assert answer["error"]["code"] == "unsupported-version"

    def test_garbage_line_gets_bad_request(self, service):
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as raw:
            raw.sendall(b"{{{ not json\n")
            answer = json.loads(raw.makefile("rb").readline())
        assert answer["error"]["code"] == "bad-request"


class TestServedResults:
    def test_served_artifact_matches_reproduce_byte_for_byte(
        self, client, capsys
    ):
        job = client.submit_artifact("figure4", repeats=1, seed=0)
        result = client.wait(job["id"], timeout=300)

        assert main(["reproduce", "figure4", "--repeats", "1", "--seed", "0"]) == 0
        local = capsys.readouterr().out

        served = result["report"] + "\n"
        for note in result["notes"]:
            served += f"note: {note}\n"
        served += "\n"
        assert served == local

    def test_submit_cli_prints_identically_to_reproduce(
        self, service, capsys
    ):
        args = ["--host", service.host, "--port", str(service.port)]
        assert main(["submit", "figure3", "--wait", *args]) == 0
        served = capsys.readouterr().out
        assert main(["reproduce", "figure3"]) == 0
        local = capsys.readouterr().out
        assert served == local

    def test_plan_submission_round_trip(self, client):
        job = client.submit_plan({
            "jobs": [
                {
                    "config": {"processor": "K8", "infra": "pm",
                               "pattern": "rr", "mode": "user", "seed": 5},
                    "benchmark": {"kind": "loop", "args": [1000]},
                    "tags": {"case": "e2e"},
                }
            ]
        })
        result = client.wait(job["id"], timeout=120)
        [row] = result["rows"]
        assert row["case"] == "e2e"
        assert row["expected"] == 3001


class TestConcurrentDedup:
    def test_identical_concurrent_submissions_share_one_execution(
        self, service
    ):
        stats = service.scheduler.stats
        before = stats.as_dict()
        gate = occupy_worker(service, token="dedup-gate")
        try:
            with ServiceClient(service.host, service.port) as c1, \
                 ServiceClient(service.host, service.port) as c2:
                job1 = c1.submit_artifact("figure4", repeats=1, seed=99)
                job2 = c2.submit_artifact("figure4", repeats=1, seed=99)
                assert job1["id"] == job2["id"]  # coalesced in flight
                assert job2["coalesced"] == 1
                gate.release.set()
                result1 = c1.wait(job1["id"], timeout=300)
                result2 = c2.wait(job2["id"], timeout=300)
                assert result1 == result2
        finally:
            gate.release.set()
        after = service.scheduler.stats.as_dict()
        # the two client submissions became ONE queued execution
        assert after["coalesced"] - before["coalesced"] == 1
        assert after["submitted"] - before["submitted"] == 2  # gate + figure4
        assert after["executed"] - before["executed"] == 2

    def test_cancel_a_queued_job(self, service, client):
        gate = occupy_worker(service, token="cancel-gate")
        try:
            job = client.submit_artifact("figure4", repeats=1, seed=123)
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError) as err:
                client.result(job["id"])
            assert err.value.code == "conflict"
        finally:
            gate.release.set()


class TestMetricsEndpoint:
    def test_metrics_text_is_well_formed(self, client):
        # at least one prior job in this module has completed
        text = client.metrics()
        lines = text.splitlines()
        assert lines, "metrics response is empty"
        for line in lines:
            assert line.startswith("#") or " " in line
        assert "# TYPE repro_jobs_completed_total counter" in lines
        completed = next(
            float(line.split()[1]) for line in lines
            if line.startswith("repro_jobs_completed_total ")
        )
        assert completed >= 1
        assert "# TYPE repro_cache_hit_rate gauge" in lines
        assert any(
            line.startswith('repro_job_duration_seconds_bucket{le="')
            for line in lines
        )

    def test_status_cli_metrics_flag(self, service, capsys):
        assert main([
            "status", "--metrics",
            "--host", service.host, "--port", str(service.port),
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queue_depth gauge" in out


class TestGracefulShutdownE2E:
    def test_shutdown_waits_for_the_mid_flight_job(self):
        with ServiceInThread(workers=1, queue_depth=16) as handle:
            gate = occupy_worker(handle, token="shutdown-gate")
            record = next(iter(handle.scheduler._jobs.values()))
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            try:
                # shutdown is waiting on the mid-flight job
                assert not record.done_event.is_set()
            finally:
                gate.release.set()
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert record.state.value == "done"
            assert record.payload == {"ok": True}
