"""Loopback OpenAI-compatible chat-completions stub with a seeded fault schedule.

Run as ``python stub.py SCHEDULE.json``. It binds 127.0.0.1 on an ephemeral
port, prints ``PORT <n>`` on standard output, and serves until its standard
input closes, so it cannot outlive the benchmark that started it.

The schedule maps ``<kind>/<tag>`` (kind is ``decision``, ``explain`` or
``reflect``; tag is the row tag found in the prompt's title) to the reply
text, and optionally to a list of actions for successive attempts at that
key, the last one repeating: ``ok``, ``prose``, ``429``, ``503``, ``400`` or
``malformed``. ``POST /reset`` forgets the attempts and returns how many
completions were served since the last reset.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_KINDS = (
    ("Instructions:", "decision"),
    ("Explain your reasoning for why the decision given was incorrect", "reflect"),
    ("Explain your reasoning for the decision", "explain"),
)


class Provider:
    def __init__(self, schedule: dict):
        self.replies = schedule["replies"]
        self.faults = schedule["faults"]
        self.prose = schedule["prose"]
        self.tag = re.compile(schedule["tag_pattern"])
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.served = 0

    def reset(self) -> int:
        with self.lock:
            served, self.served = self.served, 0
            self.attempts.clear()
        return served

    def reply(self, prompt: str) -> tuple[int, bytes]:
        kind = next((k for lead, k in _KINDS if prompt.startswith(lead)), None)
        match = self.tag.search(prompt)
        if kind is None or match is None:
            return 400, b'{"error": "unrecognised prompt"}'
        key = f"{kind}/{match.group(1)}"
        with self.lock:
            attempt = self.attempts.get(key, 0)
            self.attempts[key] = attempt + 1
            self.served += 1
        actions = self.faults.get(key, ["ok"])
        action = actions[min(attempt, len(actions) - 1)]
        if action in ("429", "503", "400"):
            return int(action), b'{"error": "injected"}'
        if action == "malformed":
            return 200, b'{"choices": [{"message": '
        text = self.prose if action == "prose" else self.replies[key]
        body = {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": -(-len(prompt) // 4), "completion_tokens": -(-len(text) // 4)},
        }
        return 200, json.dumps(body).encode("utf-8")


def make_handler(provider: Provider):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length", 0))
            payload = self.rfile.read(length)
            if self.path == "/reset":
                status, body = 200, json.dumps({"served": provider.reset()}).encode()
            elif self.path == "/v1/chat/completions":
                prompt = json.loads(payload)["messages"][0]["content"]
                status, body = provider.reply(prompt)
            else:
                status, body = 404, b"{}"
            reason = self.responses.get(status, ("",))[0]
            head = (
                f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)  # one write: no Nagle stall between head and body

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

    return Handler


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        provider = Provider(json.load(fh))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(provider))
    server.daemon_threads = True

    def watch_stdin() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=watch_stdin, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
