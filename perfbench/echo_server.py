"""A stdlib HTTP server that answers every POST with a body of a requested size.

Usage: ``python3 perfbench/echo_server.py``; prints ``listening <port>`` and
serves until SIGTERM.  The serve workload's floor sends each request's body
here and asks for a reply as long as the real response (``X-Reply-Bytes``),
so the floor pays what moving those bytes over HTTP costs on this host,
with none of the program's code.
"""

from __future__ import annotations

import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 - the stdlib's handler name
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b"0" * int(self.headers.get("X-Reply-Bytes", 0))
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"listening {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
