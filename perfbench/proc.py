"""Program processes and the keep-alive HTTP client that drives them."""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED = HERE / "traced.py"

_LISTENING = re.compile(r"serving .* on http://([\d.]+):(\d+) \((.*)\)")
_RECOVERED = re.compile(r"recovered epoch (\d+)")
_LOADED = re.compile(r"loaded (\d+) documents, (\d+) elements, (\d+) links")

#: seconds a server may take to start listening
START_TIMEOUT = 60.0


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def repro_argv(args: List[str], trace_out: Optional[Path] = None,
               trace_mode: str = "on") -> List[str]:
    """``python -m repro ARGS``, or the traced launcher around it."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACED), "--out", str(trace_out),
            "--start", trace_mode, "--", *args]


_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child, before exec: take SIGKILL when the benchmark dies,
    so no program process outlives a benchmark that was killed."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(argv: List[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(argv, env=program_env(),
                            preexec_fn=_die_with_parent, **kwargs)


class ProgramError(RuntimeError):
    """The program under test failed in a way no metric can carry."""


def run_build(args: List[str], log: Path,
              trace_out: Optional[Path] = None) -> Tuple[float, float, Tuple[int, int, int]]:
    """Run ``repro build``; returns ``(wall s, peak RSS MB, (docs, elements, links))``."""
    t0 = time.perf_counter()
    with open(log, "w") as out:
        proc = spawn(repro_argv(["build", *args], trace_out),
                     stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    text = log.read_text()
    if proc.returncode != 0:
        raise ProgramError(f"repro build failed ({proc.returncode}):\n{text}")
    match = _LOADED.search(text)
    if match is None:
        raise ProgramError(f"repro build printed no collection size:\n{text}")
    counts = tuple(int(g) for g in match.groups())
    return wall, usage.ru_maxrss / 1024.0, counts  # type: ignore[return-value]


class Server:
    """One ``repro serve`` process, started and stopped by the benchmark."""

    def __init__(self, args: List[str], log: Path,
                 trace_out: Optional[Path] = None,
                 trace_mode: str = "on") -> None:
        self.trace_out = trace_out
        self.recovered_epoch: Optional[int] = None
        self._log = open(log, "w")
        t0 = time.perf_counter()
        self.proc = spawn(
            repro_argv(["serve", *args, "--port", "0"], trace_out, trace_mode),
            stdout=subprocess.PIPE, stderr=self._log)
        listening = self._wait_listening(t0 + START_TIMEOUT, log)
        #: spawn until the listening line, in seconds
        self.start_s = time.perf_counter() - t0
        self.host = listening.group(1)
        self.port = int(listening.group(2))
        #: the start-up line's mode, e.g. "backend=sets, epoch=0, unsharded"
        self.mode = listening.group(3)
        self._log.flush()

    def _wait_listening(self, deadline: float, log: Path):
        fd = self.proc.stdout.fileno()  # type: ignore[union-attr]
        pending = b""
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0))
            if not ready:
                self.stop()
                raise ProgramError(f"repro serve did not start; see {log}")
            chunk = os.read(fd, 65536)
            if not chunk:
                self.stop()
                raise ProgramError(
                    f"repro serve exited before listening; see {log}")
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for raw in lines:
                line = raw.decode("utf-8", "replace")
                self._log.write(line + "\n")
                recovered = _RECOVERED.search(line)
                if recovered:
                    self.recovered_epoch = int(recovered.group(1))
                listening = _LISTENING.search(line)
                if listening:
                    return listening

    @property
    def frontend(self) -> str:
        return "async" if "async" in self.mode else "threaded"

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ProgramError("no VmHWM for the server process")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def trace_command(self, signum: int, marker: Path,
                      timeout: float = 30.0) -> None:
        """Signal the traced launcher and wait for the file it writes."""
        if marker.exists():
            marker.unlink()
        self.signal(signum)
        deadline = time.monotonic() + timeout
        while not marker.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ProgramError(f"traced server did not write {marker}")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL, as a crash."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Reply:
    __slots__ = ("status", "body", "nbytes", "t_send", "t_done", "port")

    def __init__(self, status, body, nbytes, t_send, t_done, port):
        self.status = status
        self.body = body
        self.nbytes = nbytes
        self.t_send = t_send
        self.t_done = t_done
        self.port = port

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and isinstance(self.body, dict)


class Client:
    """One persistent keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=60)
            self.conn.connect()
        return self.conn

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Reply:
        conn = self._connection()
        local_port = conn.sock.getsockname()[1]
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        t_send = time.perf_counter()
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return Reply(0, None, 0, t_send, time.perf_counter(), local_port)
        t_done = time.perf_counter()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return Reply(response.status, payload, len(raw), t_send, t_done,
                     local_port)

    def query(self, text: str) -> Reply:
        return self.request("GET", "/v1/query?" + urlencode({"path": text}))

    def update(self, op: dict) -> Reply:
        return self.request("POST", "/v1/update", {"ops": [op]})

    def stats(self) -> dict:
        reply = self.request("GET", "/v1/stats")
        if not reply.ok:
            raise ProgramError(f"/v1/stats answered {reply.status}")
        return reply.body

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def answer_rows(body: dict) -> Tuple[list, int]:
    """The comparable part of a ``/v1/query`` answer: rows and total."""
    rows = [[r["element"], r["bindings"], r["score"]] for r in body["results"]]
    return rows, body["total"]
