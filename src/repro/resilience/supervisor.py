"""Supervised worker processes — hard isolation for runs.

PR 6's cooperative :class:`~repro.resilience.budget.Deadline`s can only
stop code that checks them; a worker that segfaults, gets OOM-killed,
or spins in a C loop is beyond cooperation.  This module supplies the
hard half of the contract, for both process-isolated callers:

* ``campaign --executor process`` ships each run as a JSON
  :class:`~repro.api.spec.RunSpec` to a freshly spawned
  ``python -m repro.resilience.supervisor`` child (:func:`worker_main`,
  driven by :func:`run_supervised`);
* the ``serve`` daemon keeps long-lived ``python -m repro.service.worker``
  children that loop over jobs (:mod:`repro.service.daemon`).

Both children speak one JSONL vocabulary on stdout: ``heartbeat`` lines
every :data:`HEARTBEAT_INTERVAL_S` seconds while alive, progress events,
and exactly one terminal event per unit of work — ``result`` or
``error`` (:data:`TERMINAL_EVENTS`).  The parent side is one
:class:`SupervisedChild` per process, and :meth:`SupervisedChild.watch`
is the only place a verdict is decided.  It enforces three kill
conditions no cooperative check can: a *hard* wall-clock ceiling
(``timeout_s`` scaled by :data:`HARD_TIMEOUT_FACTOR` plus slack, or an
explicit ``hard_timeout_s``), a lost heartbeat (the child is wedged or
SIGSTOPped), and an external stop event (campaign SIGINT).  Every way a
worker can die — nonzero exit, signal, OOM-kill, protocol breakdown —
folds into a structured :class:`~repro.resilience.failure.RunFailure`
with stage :data:`~repro.resilience.failure.WORKER_STAGE`, so
``on_error="continue"`` campaigns sail past dead workers exactly as
they sail past failed runs.

Retries stay *inside* the child (``run_spec`` owns the retry +
degradation ladder); the supervisor never re-executes a dead worker —
that policy belongs to the caller (the daemon re-queues once).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import METRICS
from repro.resilience.chaos import WORKER_ENV
from repro.resilience.failure import WORKER_STAGE, RunFailure

if TYPE_CHECKING:  # runtime import is deferred: repro.api imports the
    # pipeline, which imports modules that need repro.resilience —
    # pulling it in at module scope would make ``import repro.debug``
    # (or any other mid-graph entry) a circular-import landmine
    from repro.api.result import RunResult
    from repro.api.spec import RunSpec

#: default seconds between child heartbeat events on stdout; the parent
#: may override it (``heartbeat_interval_s``) — the value rides to the
#: child inside the request / init JSON, so both sides always agree
HEARTBEAT_INTERVAL_S = 0.25
#: default seconds of event silence before the child is declared wedged
#: (the watchdog grace; must comfortably exceed the heartbeat interval)
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0
#: hard ceiling = cooperative ``timeout_s`` x factor + slack — generous
#: enough that the child's own graceful timeout path always wins when
#: it is able to run at all
HARD_TIMEOUT_FACTOR = 3.0
HARD_TIMEOUT_SLACK_S = 10.0
#: the events that end one unit of supervised work
TERMINAL_EVENTS = ("result", "error")
#: stderr lines retained for crash diagnostics
_STDERR_TAIL_LINES = 20
#: supervision poll period
_POLL_S = 0.05
#: seconds a one-shot child gets to exit after its terminal event
_EXIT_GRACE_S = 5.0


def hard_timeout_for(spec: RunSpec,
                     hard_timeout_s: float | None = None) -> float | None:
    """The wall-clock ceiling after which the child is killed."""
    if hard_timeout_s is not None:
        return float(hard_timeout_s)
    if spec.timeout_s is not None:
        return spec.timeout_s * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_SLACK_S
    return None


def worker_env() -> dict:
    """Child environment: importable ``repro`` + the worker marker."""
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root if not existing
        else pkg_root + os.pathsep + existing
    )
    env[WORKER_ENV] = "1"
    return env


@dataclass
class Verdict:
    """How one unit of supervised work ended."""

    #: the terminal ``result`` event (``None`` unless the work succeeded)
    event: dict | None = None
    #: that event's :class:`RunResult`, deserialized and checked
    result: RunResult | None = None
    #: why the work did not succeed
    failure: RunFailure | None = None
    #: ``"timeout"`` after a hard-ceiling kill, else ``"failed"``
    status: str = "failed"
    elapsed_s: float = 0.0


class SupervisedChild:
    """One spawned worker process, seen from the parent.

    Spawns ``python -u -m <module>`` with :func:`worker_env`, reads its
    stdout as JSONL on a daemon thread — every line resets the liveness
    clock, a :data:`TERMINAL_EVENTS` event is held for :meth:`watch`,
    and every other non-heartbeat event goes to ``on_event`` — and keeps
    the last :data:`_STDERR_TAIL_LINES` lines of stderr for crash
    reports.
    """

    def __init__(self, module: str,
                 on_event: Callable[[dict], None] | None = None) -> None:
        self.on_event = on_event
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", module],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=worker_env(),
            text=True,
        )
        self._last_event = time.monotonic()
        self._terminal: dict | None = None
        self._settled = threading.Event()
        self._stderr_tail: deque = deque(maxlen=_STDERR_TAIL_LINES)
        self._readers = [
            threading.Thread(target=self._read_events, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for reader in self._readers:
            reader.start()

    # -- I/O -----------------------------------------------------------

    def _read_events(self) -> None:
        for line in self.proc.stdout:
            self._last_event = time.monotonic()
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            kind = event.get("event")
            if kind in TERMINAL_EVENTS:
                self._terminal = event
                self._settled.set()
            elif kind != "heartbeat" and self.on_event is not None:
                self.on_event(event)

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr_tail.append(line.rstrip("\n"))

    def send(self, payload: dict) -> None:
        """Write one JSON line; a dead child's broken pipe is ignored
        (its exit code tells the story at the next :meth:`watch`)."""
        try:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            pass

    def close(self) -> None:
        """Close the child's stdin: EOF ends its request loop."""
        try:
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass

    # -- lifecycle -----------------------------------------------------

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL the child and reap it (no mercy, no zombies)."""
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass

    def reap(self, grace_s: float) -> None:
        """Close stdin, give the child ``grace_s`` to exit, then kill."""
        self.close()
        try:
            self.proc.wait(timeout=max(grace_s, 0.0))
        except subprocess.TimeoutExpired:
            self.kill()

    # -- the verdict ---------------------------------------------------

    def watch(self, ceiling: float | None = None,
              heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
              stop_event: threading.Event | None = None) -> Verdict:
        """Wait for the current unit of work to end and judge it.

        Returns as soon as a terminal event arrives — a result line
        written just before the child exits still wins — or kills the
        child on a stop request, the hard ``ceiling`` or heartbeat
        silence.  A child that exits without a terminal event is judged
        by its exit code and stderr tail.  Consumes the terminal event,
        so a looping child can be watched again for its next job.
        :class:`KeyboardInterrupt` kills the child and propagates.
        """
        t0 = time.perf_counter()

        def killed(error: str, message: str,
                   status: str = "failed") -> Verdict:
            self.kill()
            elapsed = time.perf_counter() - t0
            return Verdict(
                failure=_worker_failure(error, message, elapsed),
                status=status, elapsed_s=elapsed,
            )

        try:
            while not self._settled.wait(_POLL_S):
                if not self.alive():
                    # the terminal line may still sit in the pipe
                    for reader in self._readers:
                        reader.join(timeout=2.0)
                    break
                if stop_event is not None and stop_event.is_set():
                    return killed("WorkerInterrupted",
                                  "campaign stop requested; worker killed")
                if (ceiling is not None
                        and time.perf_counter() - t0 > ceiling):
                    return killed(
                        "WorkerHardTimeout",
                        f"worker exceeded hard wall-clock limit "
                        f"{ceiling:.1f}s; killed",
                        status="timeout",
                    )
                if time.monotonic() - self._last_event > heartbeat_timeout_s:
                    return killed(
                        "WorkerHeartbeatLost",
                        f"no worker event for {heartbeat_timeout_s:.1f}s "
                        "(hung or stopped); killed",
                    )
        except KeyboardInterrupt:
            self.kill()
            raise
        event, self._terminal = self._terminal, None
        self._settled.clear()
        return self._judge(event, time.perf_counter() - t0)

    def _judge(self, event: dict | None, elapsed: float) -> Verdict:
        """The verdict on a terminal event, or on an exit without one."""
        from repro.api.result import RunResult

        rc = self.proc.returncode
        if event is not None and event["event"] == "result":
            try:
                result = RunResult.from_dict(event.get("result"))
            except (TypeError, ValueError) as exc:
                failure = _worker_failure(
                    "WorkerProtocolError",
                    f"worker result did not deserialize: {exc}", elapsed,
                )
            else:
                # both children ship metrics on the result event: the
                # one-shot child its whole (fresh) process, the looping
                # child a per-job delta — neither double-counts
                METRICS.merge(event.get("metrics"))
                return Verdict(event=event, result=result,
                               elapsed_s=elapsed)
        elif event is not None:
            try:
                failure = RunFailure.from_dict(event.get("failure"))
            except (TypeError, ValueError):
                failure = _worker_failure(
                    "WorkerProtocolError",
                    "worker error event did not deserialize", elapsed,
                )
            if not failure.stage:
                failure.stage = WORKER_STAGE
        elif rc != 0:
            if rc < 0:
                try:
                    signame = signal.Signals(-rc).name
                except ValueError:
                    signame = f"signal {-rc}"
                detail = f"worker killed by {signame}"
                if -rc == signal.SIGKILL:
                    detail += " (chaos worker_kill, OOM-kill, or supervisor)"
            else:
                detail = f"worker exited with code {rc}"
            tail = "\n".join(self._stderr_tail).strip()
            if tail:
                detail += f"; stderr tail: {tail[-500:]}"
            failure = _worker_failure("WorkerCrashed", detail, elapsed)
        else:
            failure = _worker_failure(
                "WorkerProtocolError",
                "worker exited cleanly without emitting a result event",
                elapsed,
            )
        return Verdict(failure=failure, elapsed_s=elapsed)


def _worker_failure(error: str, message: str,
                    elapsed_s: float) -> RunFailure:
    return RunFailure(
        stage=WORKER_STAGE,
        error=error,
        message=message,
        elapsed_s=round(elapsed_s, 6),
    )


def run_supervised(
    spec: RunSpec,
    hard_timeout_s: float | None = None,
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    stop_event: threading.Event | None = None,
    heartbeat_interval_s: float | None = None,
) -> RunResult:
    """Execute ``spec`` in a spawned, supervised worker process.

    Returns the child's :class:`RunResult` verbatim on success; any
    form of worker death returns a ``status="failed"`` (hard timeout:
    ``"timeout"``) result whose single failure record carries stage
    ``"worker"``.  Raises :class:`KeyboardInterrupt` through after
    killing the child, so Ctrl-C unwinds the campaign normally.

    ``heartbeat_interval_s`` overrides the child's heartbeat cadence
    (default :data:`HEARTBEAT_INTERVAL_S`); it rides to the child in the
    request JSON so both sides agree, and the caller is responsible for
    keeping ``heartbeat_timeout_s`` comfortably above it.
    """
    from repro.api.result import RunResult

    request: dict = {"spec": spec.to_dict()}
    if heartbeat_interval_s is not None:
        request["heartbeat_interval_s"] = float(heartbeat_interval_s)
    child = SupervisedChild("repro.resilience.supervisor")
    try:
        child.send(request)
        child.close()
        verdict = child.watch(
            ceiling=hard_timeout_for(spec, hard_timeout_s),
            heartbeat_timeout_s=heartbeat_timeout_s,
            stop_event=stop_event,
        )
    finally:
        child.reap(_EXIT_GRACE_S)
    if verdict.failure is None:
        return verdict.result
    return RunResult.from_spec(
        spec, status=verdict.status, failures=[verdict.failure.to_dict()],
        wall_seconds=verdict.elapsed_s,
    )


# -- child side --------------------------------------------------------


def emit_event(payload: dict, lock: threading.Lock) -> None:
    """Write one JSONL event to stdout (the parent's only channel)."""
    with lock:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()


def emit_error(exc: BaseException, lock: threading.Lock,
               **fields) -> None:
    """The terminal ``error`` event for an exception the child caught."""
    emit_event(dict(
        fields, event="error",
        failure=RunFailure.from_exception(exc, stage=WORKER_STAGE).to_dict(),
    ), lock)


def start_heartbeat(lock: threading.Lock,
                    interval_s: float = HEARTBEAT_INTERVAL_S
                    ) -> threading.Event:
    """Beat every ``interval_s`` on a daemon thread until the returned
    event is set."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval_s):
            try:
                emit_event({"event": "heartbeat"}, lock)
            except (BrokenPipeError, OSError):
                return  # supervisor is gone; the kill follows shortly

    threading.Thread(target=beat, daemon=True).start()
    return stop


def worker_main() -> int:
    """Child entry point: one spec in on stdin, one result out on stdout."""
    from repro.api.pipeline import run_spec
    from repro.api.spec import RunSpec

    lock = threading.Lock()
    try:
        request = json.loads(sys.stdin.read())
        spec = RunSpec.from_dict(request["spec"])
        interval_s = float(
            request.get("heartbeat_interval_s") or HEARTBEAT_INTERVAL_S
        )
    except BaseException as exc:  # noqa: BLE001 — report, don't crash
        emit_error(exc, lock)
        return 1
    stop = start_heartbeat(lock, interval_s)
    try:
        result = run_spec(spec)
    except BaseException as exc:  # noqa: BLE001
        stop.set()
        emit_error(exc, lock)
        return 1
    stop.set()
    emit_event({
        "event": "result",
        "result": result.to_dict(),
        # the run's metrics ride the result event so the campaign
        # parent can merge process-mode workers into its own registry
        "metrics": METRICS.snapshot(),
    }, lock)
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
