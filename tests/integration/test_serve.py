"""Serve integration: concurrent tenants, kill/resume, graceful exits.

The ``serve_smoke`` subset is the CI smoke gate (``make serve-smoke``):
three tenants stream small traces through one server and every final
``serve.session`` digest must equal the same trace run in batch; a
SIGTERM'd server process must exit 0 with every session checkpointed,
and a restarted server must resume them bit-exact.

No pytest-asyncio in the image, so the in-process server runs a plain
``asyncio.run`` loop on a background thread and the tenants drive it
with the blocking :class:`repro.serve.ServeClient`.

Every in-process server also guards its event loop: the loop runs in
asyncio debug mode, and an audit hook records file opens, sleeps and
process spawns fired on the loop thread once ``start()`` has returned.
A test whose server loop did any of that, or logged a slow callback,
fails on exit — one blocking call in a coroutine stalls every tenant.
"""

import logging
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import parse_record, session_digest
from repro.experiments.config import RunConfig
from repro.experiments.runner import ExperimentContext, run_system
from repro.fleet import FleetSpec, run_fleet
from repro.perf.spec import result_digest
from repro.serve import ServeClient, ServeServer, ServeSettings
from repro.traces.synthetic import generate_trace

SCALE = 0.004
SYSTEM = "mq-dvp"
BATCH = 64

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

#: Audit events that block the thread that fires them.  ``time.sleep``
#: is raised only on Python 3.13+; older interpreters still catch a long
#: sleep through the slow-callback log.
BLOCKING_EVENTS = frozenset({
    "open", "time.sleep", "subprocess.Popen", "os.system",
})
#: Loop callbacks slower than this are logged by asyncio debug mode.  The
#: asyncio default is 0.1 s; the margin absorbs GIL contention with the
#: simulation worker threads on a loaded machine.
SLOW_CALLBACK_S = 0.25

#: loop-thread ident -> the blocking audit events recorded on it
_watched_loops = {}
_audit_hook_installed = False


def _opened_by_linecache():
    """Debug mode records where each task and future was created, and
    ``linecache`` opens the source files for those stacks: the guard's
    own instrumentation, not serve code."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_globals.get("__name__") == "linecache":
            return True
        frame = frame.f_back
    return False


def _record_blocking_event(event, args):
    events = _watched_loops.get(threading.get_ident())
    if events is None or event not in BLOCKING_EVENTS:
        return
    if event == "open" and _opened_by_linecache():
        return
    events.append((event, args[:1]))


def _install_audit_hook():
    # Audit hooks cannot be removed, so one hook serves every server and
    # stays inert for threads not registered in _watched_loops.
    global _audit_hook_installed
    if not _audit_hook_installed:
        sys.addaudithook(_record_blocking_event)
        _audit_hook_installed = True


class _SlowCallbackLog(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages = []

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("Executing "):
            self.messages.append(message)


def batch_digest(workload):
    context = ExperimentContext.for_workload(workload, SCALE)
    result = run_system(SYSTEM, context, config=RunConfig(scale=SCALE))
    return result_digest(result)


def trace_for(workload):
    return generate_trace(
        ExperimentContext.for_workload(workload, SCALE).profile
    )


class ServerThread:
    """An in-process serve loop on a background thread (port 0), with
    the blocking-call guard described in the module docstring."""

    def __init__(self, **settings_overrides):
        fields = dict(host="127.0.0.1", port=0, batch_requests=BATCH)
        fields.update(settings_overrides)
        self.settings = ServeSettings(**fields)
        self.server = None
        self.loop_events = []
        self._slow_log = _SlowCallbackLog()
        self.slow_callbacks = self._slow_log.messages
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio

        async def main():
            asyncio.get_running_loop().slow_callback_duration = (
                SLOW_CALLBACK_S
            )
            self.server = ServeServer(self.settings)
            await self.server.start()
            # Construction (e.g. the --obs JsonlWriter open) is one-time
            # setup; only what runs after start() is serving.
            _watched_loops[threading.get_ident()] = self.loop_events
            self._ready.set()
            try:
                await self.server.serve_until_stopped()
            finally:
                del _watched_loops[threading.get_ident()]

        asyncio.run(main(), debug=True)

    def assert_loop_never_blocked(self):
        assert not self.loop_events and not self.slow_callbacks, (
            f"serve loop blocked: events {self.loop_events}, "
            f"slow callbacks {self.slow_callbacks}"
        )

    def __enter__(self):
        _install_audit_hook()
        logging.getLogger("asyncio").addHandler(self._slow_log)
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not start"
        return self

    @property
    def port(self):
        return self.server.port

    def join(self, timeout=60):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "server did not drain"

    def __exit__(self, exc_type, *exc):
        try:
            if self._thread.is_alive():
                with ServeClient("127.0.0.1", self.port) as client:
                    client.shutdown_server()
                self.join()
        finally:
            logging.getLogger("asyncio").removeHandler(self._slow_log)
        if exc_type is None:
            self.assert_loop_never_blocked()


@pytest.mark.serve_smoke
def test_three_tenants_isolated_and_digest_identical_to_batch(tmp_path):
    """Concurrent tenants cannot perturb each other: each streamed
    session must finish with exactly its batch digest."""
    workloads = ["mail", "web", "desktop"]
    expected = {w: batch_digest(w) for w in workloads}
    obs_path = str(tmp_path / "serve.jsonl")
    records = {}
    errors = []

    with ServerThread(jobs=2, obs_path=obs_path) as server:

        def tenant(workload):
            try:
                with ServeClient("127.0.0.1", server.port) as client:
                    opened = client.open(
                        tenant=f"tenant-{workload}", workload=workload,
                        system=SYSTEM, scale=SCALE, batch_requests=BATCH,
                    )
                    assert opened["resumed"] is False
                    client.stream(trace_for(workload))
                    metrics = client.flush()
                    assert metrics["kind"] == "serve.metrics"
                    assert metrics["digest"] is None
                    records[workload] = client.close_session()
            except Exception as exc:  # surfaced by the main thread
                errors.append((workload, exc))

        threads = [
            threading.Thread(target=tenant, args=(w,)) for w in workloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors

    for workload in workloads:
        record = records[workload]
        assert record["kind"] == "serve.session"
        assert record["digest"] == expected[workload], workload
        parse_record(record)  # valid unified schema on the wire

    # Every flush/close also streamed through the obs JSONL exporter.
    import json

    lines = [
        json.loads(line)
        for line in open(obs_path).read().splitlines()
    ]
    kinds = [line["kind"] for line in lines]
    assert kinds.count("serve.metrics") == 3
    assert kinds.count("serve.session") == 3
    for line in lines:
        parse_record(line)


@pytest.mark.serve_smoke
def test_mid_stream_disconnect_leaves_session_resumable():
    """A vanished connection detaches (never corrupts) its session."""
    trace = trace_for("mail")
    cut = len(trace) // 2
    expected = batch_digest("mail")

    with ServerThread() as server:
        client = ServeClient("127.0.0.1", server.port)
        client.open(tenant="dropper", workload="mail", system=SYSTEM,
                    scale=SCALE, batch_requests=BATCH)
        client.stream(trace[:cut])
        client.flush()
        client.close()  # abrupt: no close/detach message

        # The same tenant reconnects and continues where it left off.
        deadline = time.time() + 30
        while True:
            with ServeClient("127.0.0.1", server.port) as client:
                try:
                    opened = client.open(
                        tenant="dropper", workload="mail", system=SYSTEM,
                        scale=SCALE, batch_requests=BATCH,
                    )
                except Exception:
                    # The server may not have processed the disconnect
                    # yet (tenant still attached); retry briefly.
                    if time.time() > deadline:
                        raise
                    time.sleep(0.05)
                    continue
                assert opened["resumed"] is True
                assert opened["served"] == cut
                client.stream(trace[cut:])
                record = client.close_session()
                break

    assert record["digest"] == expected


@pytest.mark.serve_smoke
def test_sigterm_drains_checkpoints_and_resumes_bit_exact(tmp_path):
    """Kill the server process mid-stream; a new process resumes every
    tenant exactly and the finished stream matches batch."""
    checkpoint_dir = str(tmp_path / "ckpt")
    trace = trace_for("mail")
    cut = len(trace) // 2
    expected = batch_digest("mail")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)

    def spawn():
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--checkpoint-dir", checkpoint_dir,
                "--batch-requests", str(BATCH),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = proc.stdout.readline()
        assert "repro-serve listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        return proc, port

    proc, port = spawn()
    try:
        with ServeClient("127.0.0.1", port) as client:
            client.open(tenant="survivor", workload="mail", system=SYSTEM,
                        scale=SCALE, batch_requests=BATCH)
            client.stream(trace[:cut])
            client.flush()  # barrier: everything sent is now in-session
            proc.send_signal(signal.SIGTERM)
            # The drain closes this connection; nothing more to send.
    finally:
        code = proc.wait(timeout=120)
    assert code == 0, f"SIGTERM exit code {code}"
    assert os.path.exists(
        os.path.join(checkpoint_dir, "survivor.session")
    ), "drain did not checkpoint the session"

    proc, port = spawn()
    try:
        with ServeClient("127.0.0.1", port) as client:
            opened = client.open(
                tenant="survivor", workload="mail", system=SYSTEM,
                scale=SCALE, batch_requests=BATCH,
            )
            assert opened["resumed"] is True
            assert opened["served"] == cut
            client.stream(trace[cut:])
            record = client.close_session()
            client.shutdown_server()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert code == 0
    assert record["digest"] == expected


@pytest.mark.serve_smoke
def test_sharded_session_matches_batch_fleet():
    """A 2-shard streamed session equals the batch fleet run: same
    per-shard digests, same fleet digest."""
    from repro.serve import SessionConfig, TenantSession

    spec = FleetSpec(workload="mail", system=SYSTEM, shards=2, scale=SCALE)
    fleet = run_fleet(spec, jobs=1)

    session = TenantSession(SessionConfig(
        tenant="sharded", workload="mail", system=SYSTEM, shards=2,
        scale=SCALE, batch_requests=BATCH,
    ))
    for request in trace_for("mail"):
        session.push(request)
        if session.step_due():
            session.flush()
    record = session.finalize()

    assert record.meta["shard_digests"] == list(fleet.shard_digests)
    assert record.digest == fleet.fleet_digest
    assert record.digest == session_digest(list(fleet.shard_digests))


def test_error_replies_keep_the_connection_alive():
    """Protocol/session errors are replies, not disconnects."""
    with ServerThread() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            # io before open -> error reply, connection stays usable.
            client._send({"type": "flush"})
            reply = client._fh.readline()
            assert b"error" in reply
            client.ping()
            client.open(tenant="t", workload="mail", system=SYSTEM,
                        scale=SCALE)
            # A second open on the same connection is refused.
            client._send({"type": "open", "tenant": "t2",
                          "workload": "mail", "system": SYSTEM})
            reply = client._fh.readline()
            assert b"error" in reply
            client.ping()
            client.close_session()


def _sleep_on_the_loop():
    time.sleep(SLOW_CALLBACK_S + 0.05)


def _open_on_the_loop():
    with open(os.devnull, "rb"):
        pass


@pytest.mark.parametrize(
    "blocking_call", [_sleep_on_the_loop, _open_on_the_loop],
    ids=["sleep", "open"],
)
def test_blocking_call_in_a_serve_coroutine_fails_the_guard(
    monkeypatch, blocking_call
):
    """The guard's own fixture: a coroutine that blocks the loop."""
    reply = ServeServer._reply

    async def blocking_reply(self, writer, message):
        blocking_call()
        await reply(self, writer, message)

    monkeypatch.setattr(ServeServer, "_reply", blocking_reply)
    server = ServerThread()
    with pytest.raises(AssertionError, match="serve loop blocked"):
        with server:
            with ServeClient("127.0.0.1", server.port) as client:
                client.ping()
    events = {event for event, _ in server.loop_events}
    if blocking_call is _open_on_the_loop:
        assert events == {"open"}
    else:
        assert server.slow_callbacks
        if sys.version_info >= (3, 13):
            assert "time.sleep" in events
