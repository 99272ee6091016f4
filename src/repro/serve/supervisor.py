"""Process supervisor for a multi-process shard fleet.

PR 7's :class:`~repro.serve.router.Fleet` runs shard daemons as
threads in one process, so the GIL serializes every simulation.  This
module promotes the fleet to OS processes::

    supervisor (repro fleet --processes)
    ├── front door   repro fleet --front-only   router-only HTTP process
    ├── shard-00     repro fleet --shard 0      polling daemon process
    ├── shard-01     repro fleet --shard 1
    └── ...

All coordination happens through the filesystem primitives that were
already multi-process-safe by design: shard workers claim from their
spool directories (atomic renames), persist into per-shard WAL SQLite
stores, and register in the shared fleet index; the front door routes
submissions into the same spools and reads results from the same
stores without ever constructing a :class:`ProfilingService` (whose
startup ``recover()`` would steal claims owned by live workers).

Supervision semantics
---------------------
* **Liveness** is process exit plus heartbeat freshness: every shard
  daemon appends a JSONL heartbeat each poll (idle polls included), so
  a worker whose process is alive but whose heartbeat is older than
  ``stale_after`` is treated as hung and killed.
* **Restarts** back off exponentially (``backoff_base * 2^k`` capped
  at ``backoff_max``) and trip a circuit breaker: more than
  ``max_restarts`` restarts inside ``restart_window`` seconds parks
  the child in ``giveup`` instead of flapping forever.
* **Drain** on SIGTERM/SIGINT stops the front door first (no new
  submissions), then SIGTERMs workers — each finishes its running job
  and drains its queue (:meth:`ProfilingService.serve_forever`'s
  graceful path) — escalating to SIGKILL only after ``grace``.

The supervisor itself does no HTTP and no simulation; it is a plain
loop over ``Popen`` handles, cheap enough to poll every half second.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.serve.service import STATUS_FILE

#: File the front-door process writes (atomically) once bound, so the
#: supervisor and clients learn the resolved ephemeral port.
FRONT_DOOR_FILE = "front-door.json"


def front_door_path(root: str) -> str:
    return os.path.join(root, FRONT_DOOR_FILE)


def write_front_door_file(root: str, host: str, port: int) -> str:
    """Atomically publish the front door's bound address."""
    path = front_door_path(root)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump({"host": host, "port": port, "pid": os.getpid(),
                   "ts": time.time()}, fh)
    os.replace(tmp, path)
    return path


def read_front_door_file(root: str) -> Optional[dict]:
    try:
        with open(front_door_path(root)) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


class ChildProcess:
    """One supervised child: argv, process handle, restart bookkeeping."""

    def __init__(self, name: str, argv: List[str], log_path: str,
                 heartbeat_path: Optional[str] = None) -> None:
        self.name = name
        self.argv = argv
        self.log_path = log_path
        #: Shard workers heartbeat; the front door does not (None).
        self.heartbeat_path = heartbeat_path
        self.proc: Optional[subprocess.Popen] = None
        self._log_fh = None
        self.state = "stopped"   # stopped|running|backoff|giveup
        self.restarts = 0
        self.restart_times: List[float] = []
        self.restart_at: Optional[float] = None
        self.last_returncode: Optional[int] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class FleetSupervisor:
    """Spawn, watch, restart, and drain a multi-process fleet."""

    def __init__(self, root: str, shards: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 jobs: int = 1, poll: float = 0.5,
                 job_timeout: Optional[float] = None,
                 retention: Optional[float] = None,
                 python: Optional[str] = None,
                 backoff_base: float = 0.5, backoff_max: float = 30.0,
                 max_restarts: int = 5, restart_window: float = 60.0,
                 stale_after: Optional[float] = None) -> None:
        self.root = root
        self.shards = shards
        self.host = host
        self.port = port
        self.jobs = jobs
        self.poll = poll
        self.job_timeout = job_timeout
        self.retention = retention
        self.python = python or sys.executable
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        # Idle workers back off their heartbeat cadence up to
        # 32 * poll; default staleness leaves generous headroom over
        # that plus one long-running job.
        self.stale_after = stale_after
        self.log_dir = os.path.join(root, "logs")
        self.children: Dict[str, ChildProcess] = {}
        self._stopping = False
        os.makedirs(self.log_dir, exist_ok=True)

    # -- argv construction ----------------------------------------------
    def _common_argv(self) -> List[str]:
        return [self.python, "-m", "repro", "fleet",
                "--root", self.root, "--shards", str(self.shards)]

    def _shard_argv(self, shard: int) -> List[str]:
        argv = self._common_argv() + [
            "--shard", str(shard), "--jobs", str(self.jobs),
            "--poll", str(self.poll)]
        if self.job_timeout is not None:
            argv += ["--timeout", str(self.job_timeout)]
        if self.retention is not None:
            argv += ["--retention", str(self.retention)]
        return argv

    def _front_argv(self) -> List[str]:
        return self._common_argv() + [
            "--front-only", "--host", self.host, "--port", str(self.port)]

    def _child_env(self) -> Dict[str, str]:
        """Child env with ``repro``'s source tree on PYTHONPATH."""
        import repro

        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (f"{src_dir}{os.pathsep}{existing}"
                                 if existing else src_dir)
        return env

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the front door and every shard worker.

        Each child is registered only once spawned: :meth:`front_address`,
        which may poll from another thread, takes a registered front
        door that is ``stopped`` and not alive for one that has exited.
        """
        children = [ChildProcess(
            "front-door", self._front_argv(),
            os.path.join(self.log_dir, "front-door.log"))]
        for shard in range(self.shards):
            name = f"shard-{shard:02d}"
            heartbeat = os.path.join(self.root, name, "spool",
                                     STATUS_FILE)
            children.append(ChildProcess(
                name, self._shard_argv(shard),
                os.path.join(self.log_dir, f"{name}.log"),
                heartbeat_path=heartbeat))
        for child in children:
            self._spawn(child)
            self.children[child.name] = child

    def _spawn(self, child: ChildProcess) -> None:
        child._log_fh = open(child.log_path, "ab")
        child.proc = subprocess.Popen(
            child.argv, stdout=child._log_fh, stderr=subprocess.STDOUT,
            env=self._child_env())
        child.state = "running"
        child.restart_at = None

    def _reap(self, child: ChildProcess) -> None:
        child.last_returncode = child.proc.poll()
        child.proc = None
        if child._log_fh is not None:
            child._log_fh.close()
            child._log_fh = None

    def _schedule_restart(self, child: ChildProcess,
                          now: float) -> None:
        """Exponential backoff with a restart-rate circuit breaker."""
        child.restart_times = [t for t in child.restart_times
                               if now - t <= self.restart_window]
        if len(child.restart_times) >= self.max_restarts:
            child.state = "giveup"
            return
        child.restart_times.append(now)
        child.restarts += 1
        backoff = min(
            self.backoff_base * (2 ** (len(child.restart_times) - 1)),
            self.backoff_max)
        child.restart_at = now + backoff
        child.state = "backoff"

    def _heartbeat_age(self, child: ChildProcess,
                       now: float) -> Optional[float]:
        """Seconds since the worker last heartbeat, or None unknown."""
        if child.heartbeat_path is None:
            return None
        try:
            with open(child.heartbeat_path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                fh.seek(max(0, fh.tell() - 4096))
                tail = fh.read().decode("utf-8",
                                        "replace").splitlines()
        except OSError:
            return None
        for line in reversed(tail):
            line = line.strip()
            if not line:
                continue
            try:
                return now - float(json.loads(line)["ts"])
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                continue
        return None

    def poll_once(self, now: Optional[float] = None) -> List[dict]:
        """One supervision pass; returns the events it acted on.

        ``now`` is injectable so tests drive backoff schedules without
        sleeping.  Spawns due restarts, schedules restarts for exited
        children, and kills hung workers (stale heartbeat while the
        process is alive) so the normal restart path picks them up.
        """
        now = time.time() if now is None else now
        events: List[dict] = []
        for child in self.children.values():
            if child.state == "giveup":
                continue
            if child.state == "backoff":
                if child.restart_at is not None \
                        and now >= child.restart_at:
                    self._spawn(child)
                    events.append({"child": child.name,
                                   "event": "restarted",
                                   "pid": child.pid})
                continue
            if child.proc is None:
                continue
            if child.proc.poll() is not None:
                self._reap(child)
                if self._stopping:
                    child.state = "stopped"
                    continue
                self._schedule_restart(child, now)
                events.append({"child": child.name,
                               "event": "exited",
                               "returncode": child.last_returncode,
                               "state": child.state,
                               "restart_at": child.restart_at})
                continue
            if self.stale_after is not None:
                age = self._heartbeat_age(child, now)
                if age is not None and age > self.stale_after:
                    child.proc.kill()
                    child.proc.wait()
                    self._reap(child)
                    self._schedule_restart(child, now)
                    events.append({"child": child.name,
                                   "event": "stale-killed",
                                   "age": age,
                                   "state": child.state})
        return events

    # -- shutdown -------------------------------------------------------
    def request_stop(self, *_signal_args) -> None:
        self._stopping = True

    def _terminate(self, child: ChildProcess) -> None:
        if child.alive():
            try:
                child.proc.terminate()
            except OSError:
                pass

    def _wait(self, child: ChildProcess, deadline: float) -> bool:
        if child.proc is None:
            return True
        try:
            child.proc.wait(timeout=max(0.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            return False
        self._reap(child)
        child.state = "stopped"
        return True

    def shutdown(self, grace: float = 30.0) -> None:
        """Drain the tree: front door first, then workers, then KILL.

        Stopping the front door first closes the submission path, so
        workers drain a queue that can only shrink; each worker's
        SIGTERM handler finishes its running job and drains before
        exiting.
        """
        self._stopping = True
        front = self.children.get("front-door")
        deadline = time.time() + grace
        if front is not None:
            self._terminate(front)
            self._wait(front, deadline)
        workers = [c for name, c in self.children.items()
                   if name != "front-door"]
        for child in workers:
            self._terminate(child)
        stragglers = [c for c in workers
                      if not self._wait(c, deadline)]
        for child in stragglers + ([front] if front is not None
                                   and front.alive() else []):
            try:
                child.proc.kill()
                child.proc.wait()
            except OSError:
                pass
            self._reap(child)
            child.state = "killed"

    # -- observability --------------------------------------------------
    def front_address(self, timeout: float = 30.0
                      ) -> Optional[Dict[str, object]]:
        """Poll for the front door's published address (host/port)."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            info = read_front_door_file(self.root)
            front = self.children.get("front-door")
            if info is not None and front is not None \
                    and info.get("pid") == front.pid:
                return info
            if front is not None and not front.alive() \
                    and front.state in ("giveup", "stopped"):
                return None
            time.sleep(0.05)
        return None

    def status(self) -> dict:
        return {
            "root": self.root,
            "shards": self.shards,
            "stopping": self._stopping,
            "children": [{
                "name": child.name,
                "state": child.state,
                "pid": child.pid,
                "alive": child.alive(),
                "restarts": child.restarts,
                "restart_at": child.restart_at,
                "last_returncode": child.last_returncode,
            } for child in self.children.values()],
        }

    def run(self, supervise_interval: float = 0.5,
            install_signal_handlers: bool = True,
            grace: float = 30.0) -> int:
        """Start the tree and supervise until signalled.

        Returns 0 when every child drained cleanly, 1 when any child
        tripped the circuit breaker or had to be SIGKILLed.
        """
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self.request_stop)
            signal.signal(signal.SIGINT, self.request_stop)
        self.start()
        while not self._stopping:
            for event in self.poll_once():
                print(f"supervisor: {json.dumps(event, sort_keys=True)}",
                      flush=True)
            time.sleep(supervise_interval)
        self.shutdown(grace=grace)
        bad = [c.name for c in self.children.values()
               if c.state in ("giveup", "killed")]
        if bad:
            print(f"supervisor: unclean children: {', '.join(bad)}",
                  flush=True)
        return 1 if bad else 0
