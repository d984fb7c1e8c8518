"""End-to-end daemon robustness: real processes, real signals, real sockets.

These tests drive ``python -m repro serve`` as a subprocess: SIGTERM
drains must exit 0, SIGKILL must lose nothing that was acknowledged, and
a restart against the same store must reproduce byte-identical reports.
Startup failures (bind conflict, locked store) must map to their
documented exit codes.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_BANNER = re.compile(
    r"listening on http://(?P<host>[\d.]+):(?P<port>\d+) "
    r".*recovered (?P<recovered>\d+) job"
)


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


@pytest.fixture(scope="module")
def datalog_c17() -> str:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "inject", "c17", "-k", "2", "--seed", "3"],
        capture_output=True,
        text=True,
        check=True,
        env=_env(),
    )
    return out.stdout


class Daemon:
    """One ``repro serve`` subprocess plus a tiny HTTP client for it."""

    def __init__(self, store: Path, *extra: str, fsync: bool = False):
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            str(store),
            "--port",
            "0",
        ]
        if not fsync:
            argv.append("--no-fsync")
        argv.extend(extra)
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
        )
        self.port = 0
        self.recovered = -1

    def wait_ready(self, timeout: float = 30.0) -> "Daemon":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    f"daemon exited during startup (rc={self.proc.poll()})"
                )
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group("port"))
                self.recovered = int(match.group("recovered"))
                return self
        raise AssertionError("daemon never printed its listening banner")

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def submit(self, datalog: str, circuit: str = "c17", **extra) -> str:
        payload = {"circuit": circuit, "datalog": datalog}
        payload.update(extra)
        status, raw = self.request("POST", "/jobs", payload)
        assert status in (200, 202), raw
        return json.loads(raw)["id"]

    def wait_job(self, job_id: str, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, raw = self.request("GET", f"/jobs/{job_id}")
            assert status == 200, raw
            job = json.loads(raw)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never went terminal")

    def sigterm_and_wait(self, timeout: float = 30.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


@pytest.fixture
def spawn(tmp_path):
    daemons = []

    def make(*extra: str, store: Path | None = None, fsync: bool = False):
        daemon = Daemon(
            store if store is not None else tmp_path / "jobs.jsonl",
            *extra,
            fsync=fsync,
        )
        daemons.append(daemon)
        return daemon

    yield make
    for daemon in daemons:
        daemon.cleanup()


def canonical_bytes(job: dict) -> bytes:
    return json.dumps(job["report"], sort_keys=True).encode()


class TestServeLifecycle:
    def test_submit_diagnose_sigterm_exits_zero(self, spawn, datalog_c17):
        daemon = spawn().wait_ready()
        assert daemon.recovered == 0
        job_id = daemon.submit(datalog_c17)
        job = daemon.wait_job(job_id)
        assert job["state"] == "done"
        assert job["report"]["method"] == "xcover"
        # Health endpoints answer over the real socket too.
        assert daemon.request("GET", "/healthz")[0] == 200
        assert daemon.request("GET", "/readyz")[0] == 200
        status, metrics = daemon.request("GET", "/metrics")
        assert status == 200
        assert b'repro_serve_jobs_total{state="done"} 1' in metrics
        assert daemon.sigterm_and_wait() == 0

    def test_kill9_preserves_acknowledged_reports(self, spawn, datalog_c17, tmp_path):
        store = tmp_path / "durable.jsonl"
        first = spawn(store=store, fsync=True).wait_ready()
        job_id = first.submit(datalog_c17)
        reference = first.wait_job(job_id)
        first.kill9()

        second = spawn(store=store, fsync=True).wait_ready()
        assert second.recovered == 0  # the job was terminal: nothing replays
        replayed = second.wait_job(job_id)
        assert canonical_bytes(replayed) == canonical_bytes(reference)
        # Resubmitting the identical spec maps onto the stored job.
        assert second.submit(datalog_c17) == job_id
        assert second.sigterm_and_wait() == 0


@pytest.mark.slow
class TestKillMidJob:
    def test_reexecution_is_byte_identical(self, spawn, tmp_path):
        datalog = subprocess.run(
            [sys.executable, "-m", "repro", "inject", "alu8", "-k", "4",
             "--seed", "3"],
            capture_output=True, text=True, check=True, env=_env(),
        ).stdout

        reference_daemon = spawn(store=tmp_path / "ref.jsonl").wait_ready()
        ref_id = reference_daemon.submit(datalog, circuit="alu8")
        reference = reference_daemon.wait_job(ref_id, timeout=120)
        assert reference["state"] == "done"
        assert reference_daemon.sigterm_and_wait() == 0

        # The victim's worker wedges for 30 s on its first job, so the kill
        # lands inside the running job however fast the diagnosis is.
        store = tmp_path / "victim.jsonl"
        victim = spawn(
            "--chaos", "wedge@executor.job:1:30s", store=store, fsync=True
        ).wait_ready()
        job_id = victim.submit(datalog, circuit="alu8")
        assert job_id == ref_id  # same spec, same fingerprint, same id
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status, raw = victim.request("GET", f"/jobs/{job_id}")
            if json.loads(raw)["state"] == "running":
                break
            time.sleep(0.05)
        else:
            raise AssertionError("job never started running")
        victim.kill9()

        revived = spawn(store=store, fsync=True).wait_ready(timeout=60)
        assert revived.recovered == 1
        recovered = revived.wait_job(job_id, timeout=120)
        assert recovered["state"] == "done"
        assert recovered["recovered"] is True
        assert canonical_bytes(recovered) == canonical_bytes(reference)
        assert revived.sigterm_and_wait() == 0


class TestSignalOrderings:
    """The untested signal interleavings: force-quit and mid-recovery stop."""

    def test_double_sigint_force_quits_130(self, spawn, datalog_c17, tmp_path):
        # A wedged worker (chaos, 30s) holds the drain window open so the
        # second SIGINT demonstrably lands *during* the drain.
        daemon = spawn(
            "--chaos",
            "wedge@executor.job:1:30s",
            "--drain-seconds",
            "30",
            store=tmp_path / "int.jsonl",
        ).wait_ready()
        job_id = daemon.submit(datalog_c17)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status, raw = daemon.request("GET", f"/jobs/{job_id}")
            if json.loads(raw)["state"] == "running":
                break
            time.sleep(0.05)
        else:
            raise AssertionError("job never started running")

        daemon.proc.send_signal(signal.SIGINT)
        time.sleep(0.5)  # the drain is now waiting on the wedged worker
        daemon.proc.send_signal(signal.SIGINT)
        assert daemon.proc.wait(timeout=15) == 130
        out = daemon.proc.stdout.read()
        assert "force quit" in out

    def test_sigterm_during_recovery_drains_cleanly(
        self, spawn, datalog_c17, tmp_path
    ):
        from repro.serve.protocol import JobSpec
        from repro.serve.store import JobStore

        # A store with 8 pending jobs: recovery has real work to replay.
        store_path = tmp_path / "slow.jsonl"
        store = JobStore(store_path, fsync=False)
        store.open()
        for i in range(8):
            store.submit(
                JobSpec(circuit="c17", datalog=datalog_c17 + f"# {i}\n")
            )
        store.close()

        # 200ms per replayed record stretches recovery well past the
        # SIGTERM sent below; the daemon must drain and exit 0 without
        # ever binding its socket.
        daemon = spawn(
            "--chaos",
            "slow_io@store.replay:200ms",
            store=store_path,
        )
        time.sleep(0.8)
        assert daemon.proc.poll() is None, "daemon died before the signal"
        rc = daemon.sigterm_and_wait(timeout=30)
        assert rc == 0
        out = daemon.proc.stdout.read()
        assert "stop requested during recovery" in out
        assert "listening on" not in out

        # Nothing was lost: a normal restart recovers the still-pending
        # jobs (workers may have finished a few in the instants between
        # replay and the drain) and every job reaches done.
        revived = spawn(store=store_path).wait_ready()
        assert 1 <= revived.recovered <= 8
        status, raw = revived.request("GET", "/jobs")
        jobs = json.loads(raw)["jobs"]
        assert len(jobs) == 8
        for job in jobs:
            final = revived.wait_job(job["id"], timeout=60)
            assert final["state"] == "done"
        assert revived.sigterm_and_wait() == 0


class TestExitCodes:
    def test_bind_conflict_exits_3(self, spawn, tmp_path):
        holder = spawn(store=tmp_path / "a.jsonl").wait_ready()
        loser = spawn("--port", str(holder.port), store=tmp_path / "b.jsonl")
        # Override the fixture's --port 0 with the taken port: argparse
        # keeps the last occurrence.
        assert loser.proc.wait(timeout=30) == 3
        out = loser.proc.stdout.read()
        assert "cannot bind" in out
        assert holder.sigterm_and_wait() == 0

    def test_locked_store_exits_4(self, spawn, tmp_path):
        store = tmp_path / "shared.jsonl"
        holder = spawn(store=store).wait_ready()
        loser = spawn(store=store)
        assert loser.proc.wait(timeout=30) == 4
        out = loser.proc.stdout.read()
        assert "locked" in out
        assert holder.sigterm_and_wait() == 0
