"""The ``serve`` workload: ``repro serve`` under an open-loop replay.

The service runs in its own process.  This process is the load
generator: one ingest TCP connection written on a fixed schedule with
non-blocking sends, plus one sequential stats-poll connection (the
stats endpoint answers one request per connection).  A stalled service
therefore shows up as lateness against the schedule, never as a slower
offer, and every latency is measured from the line's due time.

A replay runs phases against one service, each on its own tenants:

* ``low`` - a fixed rate below capacity.  A line's latency runs from its
  due time to the receipt of the first stats poll whose tenant
  ``processed`` count covers it (tenant queues are FIFO, so counts map
  to lines); the poll interval is the resolution.
* ``over`` - a fixed rate well above capacity.  Capacity is the lines
  processed (not shed or refused) per second from the first send until
  the service has drained.
* ``burst k`` - bursts at the over rate small enough that no line is
  shed, each drained before the next; ``Service.cpu_s`` around each
  gives the service's CPU time per burst.

SIGTERM then drains the service and its final JSON report is read back.
"""

from __future__ import annotations

import errno
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

_LISTENING = re.compile(r"ingest service listening: tcp=(\d+) udp=\S+ stats=(\d+)")

#: Seconds to wait for the service to listen, drain, or exit.
START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


class ServiceError(RuntimeError):
    pass


class Service:
    """A ``repro serve`` process with stdout/stderr captured to files."""

    def __init__(self, root: str, workdir: str, argv_prefix: Sequence[str],
                 env: Dict[str, str], cpus: Optional[Sequence[int]] = None):
        os.makedirs(workdir, exist_ok=True)
        self.state_dir = os.path.join(workdir, "state")
        self.stdout_path = os.path.join(workdir, "serve.out")
        self.stderr_path = os.path.join(workdir, "serve.err")
        argv = list(argv_prefix) + [
            "serve", "--no-udp", "--state-dir", self.state_dir,
        ]
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, cwd=root, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        if cpus:
            os.sched_setaffinity(self.proc.pid, set(cpus))
        self.tcp_port = 0
        self.stats_port = 0
        self.rusage = None

    def wait_listening(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.stderr_path, "r", errors="replace") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                self.tcp_port = int(match.group(1))
                self.stats_port = int(match.group(2))
                return
            if self.proc.poll() is not None:
                raise ServiceError(f"service exited early: {self.stderr()}")
            time.sleep(0.005)
        raise ServiceError("service did not start listening")

    def cpu_s(self) -> float:
        """CPU seconds the service's threads have run so far."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, task, "schedstat")) as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended
        return total / 1e9

    def stderr(self) -> str:
        with open(self.stderr_path, "r", errors="replace") as handle:
            return handle.read()[-2000:]

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return the final report."""
        self.proc.send_signal(signal.SIGTERM)
        self._reap(DRAIN_TIMEOUT)
        with open(self.stdout_path, "r", errors="replace") as handle:
            text = handle.read()
        start = text.find("{")
        if start < 0:
            raise ServiceError(f"no final report: {self.stderr()}")
        return json.loads(text[start:])

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap(DRAIN_TIMEOUT)

    def _reap(self, timeout: float) -> None:
        """Wait for exit (killing it after ``timeout``) and keep the
        child's resource usage: its peak RSS is the service's."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                return
            if time.monotonic() > deadline:
                self.proc.kill()
            time.sleep(0.01)

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0


class Poller:
    """Sequential non-blocking ``stats`` requests on the selector."""

    def __init__(self, sel: selectors.BaseSelector, port: int):
        self.sel = sel
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = bytearray()
        self.sent = False
        #: ``(receipt time, {tenant: row})`` per completed poll.
        self.samples: List[Tuple[float, Dict[str, dict]]] = []

    @property
    def busy(self) -> bool:
        return self.sock is not None

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex(("127.0.0.1", self.port))
        if err not in (0, errno.EINPROGRESS):
            sock.close()
            raise ServiceError(f"stats connect failed: {os.strerror(err)}")
        self.sock, self.buf, self.sent = sock, bytearray(), False
        self.sel.register(sock, selectors.EVENT_WRITE, self)

    def on_event(self, mask: int) -> Optional[Dict[str, dict]]:
        sock = self.sock
        if not self.sent and mask & selectors.EVENT_WRITE:
            sock.send(b"stats\n")
            self.sent = True
            self.sel.modify(sock, selectors.EVENT_READ, self)
            return None
        if mask & selectors.EVENT_READ:
            chunk = sock.recv(1 << 20)
            if chunk:
                self.buf += chunk
            if chunk and not self.buf.endswith(b"\n"):
                return None
            now = time.monotonic()
            self.sel.unregister(sock)
            sock.close()
            self.sock = None
            tenants = json.loads(bytes(self.buf))["tenants"]
            self.samples.append((now, tenants))
            return tenants
        return None


class PhaseResult:
    def __init__(self, rate: float):
        self.rate = rate
        self.t0 = 0.0
        self.t_done = 0.0
        self.lag = array("d")  # seconds each line was sent after its due time
        self.final: Dict[str, dict] = {}
        self.polls_from = 0
        self.polls_to = 0


class Replay:
    """Drives one service instance through the phases of a replay."""

    def __init__(self, tcp_port: int, stats_port: int):
        self.sel = selectors.DefaultSelector()
        self.ingest = socket.create_connection(("127.0.0.1", tcp_port))
        self.ingest.setblocking(False)
        self.poller = Poller(self.sel, stats_port)
        self.sent_by_tenant: Dict[str, int] = {}

    def close(self) -> None:
        if self.poller.sock is not None:
            self.sel.unregister(self.poller.sock)
            self.poller.sock.close()
        self.ingest.close()
        self.sel.close()

    def run_phase(
        self, name: str, lines: Sequence[Tuple[str, bytes]], rate: float,
        interval: float,
    ) -> PhaseResult:
        """Send ``lines`` at ``rate`` lines/s on the fixed schedule, polling
        stats every ``interval`` seconds, then poll until every line is
        accounted for by its tenant."""
        phase = PhaseResult(rate)
        payload = b"".join(data for _tenant, data in lines)
        ends = array("q")
        total = 0
        for tenant, data in lines:
            total += len(data)
            ends.append(total)
            self.sent_by_tenant[tenant] = self.sent_by_tenant.get(tenant, 0) + 1
        view = memoryview(payload)
        n = len(lines)
        sent_bytes = 0
        sent_lines = 0
        poller = self.poller
        phase.polls_from = len(poller.samples)
        registered = False
        t0 = time.monotonic()
        phase.t0 = t0
        next_poll = t0
        lag_append = phase.lag.append
        while sent_lines < n:
            now = time.monotonic()
            due = min(n, int((now - t0) * rate) + 1)
            target = ends[due - 1]
            if sent_bytes < target:
                try:
                    sent_bytes += self.ingest.send(view[sent_bytes:target])
                except BlockingIOError:
                    pass
                done = time.monotonic()
                while sent_lines < n and ends[sent_lines] <= sent_bytes:
                    lag_append(done - (t0 + sent_lines / rate))
                    sent_lines += 1
                if sent_lines >= n:
                    break
            if not poller.busy and now >= next_poll:
                poller.start()
                next_poll = now + interval
            # Behind schedule means the socket buffer is full: wait until
            # it drains.  Otherwise sleep until the next line is due.
            behind = sent_bytes < target
            if behind != registered:
                if behind:
                    self.sel.register(self.ingest, selectors.EVENT_WRITE, None)
                else:
                    self.sel.unregister(self.ingest)
                registered = behind
            wake = next_poll if not poller.busy else now + 0.05
            if not behind:
                wake = min(wake, t0 + due / rate)
            timeout = max(0.0, wake - time.monotonic())
            for key, mask in self.sel.select(timeout):
                if key.data is poller:
                    poller.on_event(mask)
        if registered:
            self.sel.unregister(self.ingest)
        # Every line is on the wire; poll until each tenant accounts for
        # everything sent to it so far.
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while True:
            if not poller.busy:
                now = time.monotonic()
                if now < next_poll:
                    time.sleep(next_poll - now)
                poller.start()
                next_poll = time.monotonic() + interval
            for key, mask in self.sel.select(1.0):
                tenants = key.data.on_event(mask)
                if tenants is not None and self._settled(tenants):
                    phase.t_done = poller.samples[-1][0]
                    phase.final = tenants
                    phase.polls_to = len(poller.samples)
                    return phase
            if time.monotonic() > deadline:
                raise ServiceError(f"phase {name}: service never settled")

    def _settled(self, tenants: Dict[str, dict]) -> bool:
        for tenant, sent in self.sent_by_tenant.items():
            row = tenants.get(tenant)
            if row is None or row["received"] != sent:
                return False
            if row["queue_depth"] or not row["conserves"]:
                return False
        return True


def latencies(
    phase: PhaseResult,
    lines: Sequence[Tuple[str, bytes]],
    samples: Sequence[Tuple[float, Dict[str, dict]]],
) -> array:
    """Per-line latency (seconds) from due time to the first poll whose
    tenant count covers the line.  Shed and refused lines count as
    handled (they also end a line's wait); the caller counts them as
    failures."""
    due: Dict[str, List[float]] = {}
    for i, (tenant, _data) in enumerate(lines):
        due.setdefault(tenant, []).append(phase.t0 + i / phase.rate)
    credited = {tenant: 0 for tenant in due}
    out = array("d")
    for t_recv, tenants in samples:
        for tenant, times in due.items():
            row = tenants.get(tenant)
            if row is None:
                continue
            covered = min(len(times), row["processed"] + row["shed"] + row["refused"])
            for k in range(credited[tenant], covered):
                out.append(t_recv - times[k])
            if covered > credited[tenant]:
                credited[tenant] = covered
    return out


def encode(lines: Sequence[Tuple[str, str]], prefix: str
           ) -> List[Tuple[str, bytes]]:
    """Wire lines ``@<prefix>-<system>:<system> <line>``: one tenant per
    system, named for the phase that feeds it."""
    from repro.service.router import format_envelope

    out = []
    for system, line in lines:
        tenant = f"{prefix}-{system}"
        out.append((tenant, (format_envelope(tenant, system, line) + "\n")
                    .encode("utf-8")))
    return out
