#!/usr/bin/env python3
"""End-to-end smoke test for the capstan-serve daemon.

Starts capstan-serve on a private Unix socket, then acts as a protocol
client (docs/SERVE_PROTOCOL.md):

  1. ping/pong liveness;
  2. a malformed line gets a structured error and the connection
     survives;
  3. a single run job streams accepted/started/progress/result, and
     the result's "stats" bytes are byte-identical to what
     `capstan-run --json --compact` prints for the same point;
  4. the same job resubmitted is served from the warm dataset cache
     (observable in the stats op) with identical bytes;
  5. a small sweep streams one progress event per point;
  6. SIGTERM drains cleanly: shutdown event, EOF, exit code 0, and
     the socket file is removed;
  7. connection churn: a second daemon, started with RLIMIT_NOFILE
     128, answers 400 clients that each connect, ping and close (a
     daemon that kept closed connections' fds would run out near the
     124th), then the `shutdown` op exits it with code 0.

Exits non-zero with a diagnostic on the first failed check. Run by
ctest as `serve_smoke` (and under TSan in CI); needs only the build
tree, no network.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

RUN_JOB = {
    "type": "run",
    "options": {
        "app": "spmv",
        "config": "capstan",
        "scale": 0.02,
        "tiles": 4,
        "iterations": 1,
    },
}

SWEEP_JOB = {
    "type": "sweep",
    "options": {"scale": 0.02, "tiles": 4, "iterations": 1},
    "axes": {"app": ["spmv", "bfs"]},
}

# Phase 7: more clients than the daemon's fd limit, one at a time.
CHURN_CLIENTS = 400
CHURN_FD_LIMIT = 128

RUN_CLI_FLAGS = [
    "--app", "spmv", "--config", "capstan", "--scale", "0.02",
    "--tiles", "4", "--iterations", "1", "--json", "--compact",
]


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Client:
    """A line-oriented protocol client over the daemon's socket."""

    def __init__(self, path, timeout=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buffer = b""

    def close(self):
        self.sock.close()

    def send(self, doc):
        line = doc if isinstance(doc, str) else json.dumps(doc)
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        """The next event line, or None on EOF/timeout."""
        while b"\n" not in self.buffer:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                return None
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def read_event(self, name):
        """Skip forward to the next event named `name` (parsed)."""
        while True:
            line = self.read_line()
            if line is None:
                fail(f"EOF/timeout while waiting for {name!r} event")
            doc = json.loads(line)
            if doc.get("event") == name:
                return doc

    def result_stats_bytes(self):
        """Read to the next result event; return (doc, stats bytes).

        The stats bytes are sliced out of the raw line (the protocol
        guarantees "stats" is the final member), not re-serialized, so
        they can be compared byte-for-byte with CLI output.
        """
        while True:
            line = self.read_line()
            if line is None:
                fail("EOF/timeout while waiting for result event")
            doc = json.loads(line)
            if doc.get("event") != "result":
                continue
            marker = '"stats":'
            pos = line.find(marker)
            if pos < 0 or not line.endswith("}"):
                fail(f"result line has no stats member: {line}")
            return doc, line[pos + len(marker):-1]


def wait_for_socket(path, proc, budget=60.0):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"daemon exited early with code {proc.returncode}")
        if os.path.exists(path):
            try:
                probe = Client(path, timeout=5.0)
                probe.close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    fail(f"daemon socket {path} never became connectable")


def limit_fds():
    """Runs in the daemon's child process, before exec."""
    resource.setrlimit(resource.RLIMIT_NOFILE,
                       (CHURN_FD_LIMIT, CHURN_FD_LIMIT))


def churn(serve_bin, workdir):
    """Phase 7: every closed connection gives its fd back."""
    sock_path = os.path.join(workdir, "churn.sock")
    proc = subprocess.Popen(
        [serve_bin, "--socket", sock_path, "--jobs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=limit_fds)
    try:
        wait_for_socket(sock_path, proc)
        for i in range(CHURN_CLIENTS):
            client = Client(sock_path, timeout=10.0)
            client.send({"op": "ping", "id": i})
            line = client.read_line()
            if line is None or json.loads(line).get("id") != i:
                fail(f"churn client {i} of {CHURN_CLIENTS} got no pong "
                     f"(fd limit {CHURN_FD_LIMIT}): {line}")
            client.close()
        client = Client(sock_path, timeout=60.0)
        client.send({"op": "shutdown", "id": 1})
        client.read_event("shutdown")
        code = proc.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code} after the shutdown op")
        client.close()
        print(f"serve_smoke: {CHURN_CLIENTS} clients under an fd limit "
              f"of {CHURN_FD_LIMIT}, shutdown op -> exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def serve(serve_bin, run_bin, workdir):
    """Phases 1-6 against one daemon, from first ping to SIGTERM."""
    sock_path = os.path.join(workdir, "serve.sock")

    proc = subprocess.Popen(
        [serve_bin, "--socket", sock_path, "--jobs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        wait_for_socket(sock_path, proc)
        client = Client(sock_path, timeout=300.0)

        # 1. Liveness.
        client.send({"op": "ping", "id": 1})
        pong = client.read_event("pong")
        if pong.get("id") != 1:
            fail(f"pong did not echo the request id: {pong}")
        print("serve_smoke: ping/pong ok")

        # 2. Malformed input gets a structured error; the line-based
        # stream stays usable afterwards.
        client.send("{this is not json")
        err = client.read_event("error")
        if err.get("code") != "parse_error":
            fail(f"expected parse_error, got {err}")
        client.send({"op": "ping", "id": 2})
        client.read_event("pong")
        print("serve_smoke: malformed line -> structured error ok")

        # 3. Run job: streamed lifecycle plus CLI byte-identity.
        client.send({"op": "submit", "id": 3, "job": RUN_JOB})
        accepted = client.read_event("accepted")
        job_id = accepted["job_id"]
        started = client.read_event("started")
        if started["job_id"] != job_id:
            fail(f"started for wrong job: {started}")
        progress = client.read_event("progress")
        if progress["done"] != 1 or progress["app"] != "spmv":
            fail(f"unexpected progress event: {progress}")
        result, stats = client.result_stats_bytes()
        if not result.get("ok"):
            fail(f"run job failed: {result}")
        cli = subprocess.run(
            [run_bin] + RUN_CLI_FLAGS, check=True,
            capture_output=True, text=True).stdout.strip()
        if stats != cli:
            fail("serve stats bytes differ from capstan-run output\n"
                 f"  serve: {stats[:200]}...\n  cli:   {cli[:200]}...")
        print("serve_smoke: run result is byte-identical to the CLI")

        # 4. Resubmission is served from the warm dataset cache.
        client.send({"op": "stats", "id": 4})
        before = client.read_event("stats")
        client.send({"op": "submit", "id": 5, "job": RUN_JOB})
        again, stats2 = client.result_stats_bytes()
        if not again.get("ok") or stats2 != stats:
            fail("warm rerun produced different bytes")
        client.send({"op": "stats", "id": 6})
        after = client.read_event("stats")
        if after["dataset_cache"]["hits"] <= \
                before["dataset_cache"]["hits"]:
            fail(f"no cache hit on the second job: "
                 f"{before['dataset_cache']} -> "
                 f"{after['dataset_cache']}")
        if after["jobs"]["completed"] != \
                before["jobs"]["completed"] + 1:
            fail(f"completed counter wrong: {after['jobs']}")
        print("serve_smoke: second job hit the warm cache "
              f"(hits {before['dataset_cache']['hits']} -> "
              f"{after['dataset_cache']['hits']})")

        # 5. Sweeps stream one progress event per point.
        client.send({"op": "submit", "id": 7, "job": SWEEP_JOB})
        seen = 0
        while True:
            line = client.read_line()
            if line is None:
                fail("EOF/timeout during sweep")
            doc = json.loads(line)
            if doc.get("event") == "progress":
                seen += 1
            elif doc.get("event") == "result":
                if not doc.get("ok"):
                    fail(f"sweep failed: {doc}")
                break
        if seen != 2:
            fail(f"expected 2 sweep progress events, saw {seen}")
        print("serve_smoke: sweep streamed per-point progress")

        # 6. SIGTERM drains cleanly.
        proc.send_signal(signal.SIGTERM)
        saw_shutdown = False
        while True:
            line = client.read_line()
            if line is None:
                break
            if json.loads(line).get("event") == "shutdown":
                saw_shutdown = True
        if not saw_shutdown:
            fail("no shutdown event before EOF")
        code = proc.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code} after SIGTERM")
        if os.path.exists(sock_path):
            fail("socket file survived the drain")
        client.close()
        print("serve_smoke: SIGTERM -> clean drain, exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", required=True,
                        help="CMake build tree with the capstan binaries")
    args = parser.parse_args()

    serve_bin = os.path.join(args.build_dir, "capstan-serve")
    run_bin = os.path.join(args.build_dir, "capstan-run")
    for binary in (serve_bin, run_bin):
        if not os.access(binary, os.X_OK):
            fail(f"missing binary {binary}")

    # Both daemons' sockets live here; it goes whether the run passes
    # or fails.
    workdir = tempfile.mkdtemp(prefix="capstan-serve-smoke-")
    try:
        serve(serve_bin, run_bin, workdir)
        # 7. Connection churn under a small fd limit.
        churn(serve_bin, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("serve_smoke: PASS")


if __name__ == "__main__":
    main()
