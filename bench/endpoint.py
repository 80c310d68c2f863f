"""Chat-completion endpoint stand-in for the live-loopback workload.

Runs as its own process (``python3 endpoint.py PLAN SERVICE_MS``) so its
Python work does not compete with the client for one interpreter lock. It
binds 127.0.0.1 on a free port, prints ``READY <port>`` and serves until
its standard input closes, which also happens when the benchmark dies.

Requests name the stage in the ``model`` field ("zs", "s1", "s2") and the
record through its ``ref#<post id>`` tag in the prompt. The plan file maps
tag -> stage -> [fault, answer]. Faults are attempt-aware: ``503once``
fails only the first attempt of a (record, stage) and sends no Retry-After
header; ``401`` and ``malformed`` (a 200 whose body lacks ``choices``) never
succeed. Each request holds its connection for a fixed service time.

``GET /_stats`` returns the server-side counters since the last reset:
requests, connections that carried at least one request, status codes,
useful (valid) answers and per-request service times; ``?reset=1`` also
clears them together with the attempt counts, so every round of the
benchmark starts from the same state.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_REF_RE = re.compile(r"ref#(\S+)")


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.useful = 0
        self.status: Counter = Counter()
        self.service_s: list[float] = []
        self.attempts: Counter = Counter()

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "useful": self.useful,
            "status": dict(self.status),
            "service_s": list(self.service_s),
        }


def make_handler(plan: dict, service_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive available to clients that reuse
        counted = False

        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if not self.path.startswith("/_stats"):
                self._send(404, {"error": "not found"})
                return
            with stats.lock:
                body = stats.snapshot()
                if "reset=1" in self.path:
                    stats.reset()
            self._send(200, body)

        def do_POST(self) -> None:
            started = time.perf_counter()
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            stage = payload["model"]
            ref = _REF_RE.search(payload["messages"][0]["content"]).group(0)
            fault, answer = plan[ref][stage]
            with stats.lock:
                stats.attempts[(ref, stage)] += 1
                attempt = stats.attempts[(ref, stage)]
            time.sleep(service_s)
            if fault == "401":
                status, body = 401, {"error": "invalid api key"}
            elif fault == "503once" and attempt == 1:
                status, body = 503, {"error": "overloaded"}
            elif fault == "malformed":
                status, body = 200, {"id": "cmpl", "object": "chat.completion"}
            else:
                status = 200
                body = {"choices": [{"message": {"role": "assistant", "content": answer},
                                     "finish_reason": "stop"}]}
            self._send(status, body)
            with stats.lock:
                stats.requests += 1
                if not self.counted:
                    self.counted = True
                    stats.connections += 1
                stats.status[str(status)] += 1
                stats.useful += status == 200 and "choices" in body
                stats.service_s.append(time.perf_counter() - started)

    return Handler


def main(argv: list[str]) -> None:
    plan_path, service_ms = argv[0], float(argv[1])
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(plan, service_ms / 1000.0, stats))
    server.daemon_threads = True
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1:])
