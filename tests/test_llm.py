from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absieve.corpus import Decision
from absieve.llm import (
    AuthMissing,
    CompletionRequest,
    FatalBackendError,
    MAX_REDIRECTS,
    HttpBackend,
    MockBackend,
    MockScript,
    TransientBackendError,
    count_tokens_estimate,
    parse_decision,
)
from absieve.prompts import PromptKind, PromptText

PROMPT = PromptText(PromptKind.DECISION, "screen this")


def request_for(dataset: str | None = "IVM", row: int | None = 0) -> CompletionRequest:
    return CompletionRequest(model="m", prompt=PROMPT, dataset_name=dataset, row_index=row)


class TestParseDecision:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("included", Decision.INCLUDED),
            ("excluded", Decision.EXCLUDED),
            (" Excluded.\n", Decision.EXCLUDED),
            ('"included"', Decision.INCLUDED),
            ("'Included';", Decision.INCLUDED),
            ("INCLUDED!!!", Decision.INCLUDED),
            ("excluded.,:;!", Decision.EXCLUDED),
            ("Decision: included", Decision.INCLUDED),
            ("The article should be excluded", Decision.EXCLUDED),
            ("", Decision.UNPARSEABLE),
            ("maybe", Decision.UNPARSEABLE),
            ("include", Decision.UNPARSEABLE),
            ("reincluded", Decision.UNPARSEABLE),
            (
                "Decision: included. The study is excluded from none of the criteria... excluded",
                Decision.UNPARSEABLE,
            ),
            ("included or excluded", Decision.UNPARSEABLE),
        ],
    )
    def test_examples(self, text, expected):
        assert parse_decision(text) is expected

    @given(
        st.sampled_from(["included", "excluded"]),
        st.text(alphabet=" \t\n", max_size=3),
        st.text(alphabet=" \t\n", max_size=3),
        st.sampled_from(["", '"', "'", "`"]),
        st.text(alphabet=".,:;!", max_size=3),
        st.booleans(),
    )
    def test_decorated_labels_recovered(self, label, lead, trail, quote, punct, upper):
        cased = label.upper() if upper else label.capitalize()
        decorated = f"{lead}{quote}{cased}{quote}{punct}{trail}"
        assert parse_decision(decorated) is Decision(label)


class TestCountTokensEstimate:
    def test_empty(self):
        assert count_tokens_estimate("") == 0

    def test_exact_multiple(self):
        assert count_tokens_estimate("x" * 400) == 100

    def test_ceiling(self):
        assert count_tokens_estimate("x" * 401) == 101


class TestCompletionRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(model="m", prompt=PromptText(PromptKind.DECISION, ""))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(model="m", prompt=PROMPT, temperature=-0.1)

    def test_zero_output_tokens_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(model="m", prompt=PROMPT, max_output_tokens=0)


class TestMockScript:
    def test_from_dict(self):
        script = MockScript.from_dict(
            {
                "IVM/0": "included",
                "default": "excluded",
                "failures": {"IVM/1": {"status": 500, "count": 2}},
            }
        )
        assert script.responses[("IVM", 0)] == "included"
        assert script.default == "excluded"
        assert script.failures[("IVM", 1)].status == 500

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            MockScript.from_dict({"no-slash": "x"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"A/3": "included", "default": "excluded"}))
        script = MockScript.from_file(path)
        assert script.responses[("A", 3)] == "included"


class TestMockBackend:
    def test_scripted_replay(self):
        backend = MockBackend(MockScript.from_dict({"IVM/0": "included", "default": "excluded"}))
        assert backend.complete(request_for("IVM", 0)).text == "included"
        assert backend.complete(request_for("IVM", 1)).text == "excluded"

    def test_injected_transient_failures_then_success(self):
        backend = MockBackend(
            MockScript.from_dict(
                {"IVM/0": "included", "failures": {"IVM/0": {"status": 429, "count": 2}}}
            )
        )
        with pytest.raises(TransientBackendError):
            backend.complete(request_for())
        with pytest.raises(TransientBackendError):
            backend.complete(request_for())
        assert backend.complete(request_for()).text == "included"
        assert backend.call_count == 3

    def test_injected_fatal_failure(self):
        backend = MockBackend(
            MockScript.from_dict({"failures": {"IVM/0": {"status": 400, "count": 1}}})
        )
        with pytest.raises(FatalBackendError):
            backend.complete(request_for())

    def test_referentially_transparent(self):
        script = MockScript.from_dict({"IVM/0": "included", "default": "excluded"})
        sequence = [("IVM", 0), ("IVM", 1), (None, None), ("IVM", 0)]
        first = [MockBackend(script).complete(request_for(d, r)).text for d, r in sequence]
        second = [MockBackend(script).complete(request_for(d, r)).text for d, r in sequence]
        assert first == second

    def test_token_counts_use_estimate(self):
        backend = MockBackend(MockScript.from_dict({"default": "included"}))
        result = backend.complete(request_for())
        assert result.input_tokens == count_tokens_estimate(PROMPT.body)
        assert result.output_tokens == count_tokens_estimate("included")


class _Handler(BaseHTTPRequestHandler):
    """Serves canned (status, body) responses and records incoming requests."""

    responses: list[tuple[int, object]] = []
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).seen.append(
            {
                "path": self.path,
                "auth": self.headers.get("Authorization"),
                "payload": json.loads(body),
            }
        )
        status, payload = type(self).responses.pop(0)
        raw = payload.encode() if isinstance(payload, str) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def http_server():
    _Handler.responses = []
    _Handler.seen = []
    with serving(_Handler) as url:
        yield url, _Handler


def _ok_body(text: str = "included", usage: dict | None = None) -> dict:
    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        body["usage"] = usage
    return body


class TestHttpBackend:
    def test_auth_missing_before_any_network_call(self, monkeypatch):
        monkeypatch.delenv("ABSIEVE_API_KEY", raising=False)
        with pytest.raises(AuthMissing):
            HttpBackend("http://127.0.0.1:1")

    def test_request_shape_and_bearer_token(self, http_server, monkeypatch):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "sk-test")
        handler.responses.append((200, _ok_body()))
        backend = HttpBackend(url)
        request = CompletionRequest(
            model="screener-v1", prompt=PROMPT, temperature=0.25, max_output_tokens=16
        )
        result = backend.complete(request)
        assert result.text == "included"
        seen = handler.seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer sk-test"
        assert seen["payload"] == {
            "model": "screener-v1",
            "messages": [{"role": "user", "content": "screen this"}],
            "temperature": 0.25,
            "max_tokens": 16,
        }

    def test_usage_counts_preferred_over_estimate(self, http_server, monkeypatch):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        handler.responses.append(
            (200, _ok_body(usage={"prompt_tokens": 123, "completion_tokens": 4}))
        )
        result = HttpBackend(url).complete(request_for())
        assert result.input_tokens == 123
        assert result.output_tokens == 4

    def test_missing_usage_falls_back_to_estimate(self, http_server, monkeypatch):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        handler.responses.append((200, _ok_body("included")))
        result = HttpBackend(url).complete(request_for())
        assert result.input_tokens == count_tokens_estimate(PROMPT.body)
        assert result.output_tokens == count_tokens_estimate("included")

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_retryable_statuses_raise_transient(self, http_server, monkeypatch, status):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        handler.responses.append((status, {}))
        with pytest.raises(TransientBackendError):
            HttpBackend(url).complete(request_for())

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_client_errors_raise_fatal(self, http_server, monkeypatch, status):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        handler.responses.append((status, {}))
        with pytest.raises(FatalBackendError):
            HttpBackend(url).complete(request_for())

    @pytest.mark.parametrize("payload", ["not json", {"choices": []}, {"choices": [{}]}])
    def test_malformed_bodies_raise_fatal(self, http_server, monkeypatch, payload):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        handler.responses.append((200, payload))
        with pytest.raises(FatalBackendError):
            HttpBackend(url).complete(request_for())

    def test_connection_failure_is_transient(self, monkeypatch):
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        backend = HttpBackend("http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(TransientBackendError):
            backend.complete(request_for())

    def test_credential_env_name_configurable(self, http_server, monkeypatch):
        url, handler = http_server
        monkeypatch.delenv("ABSIEVE_API_KEY", raising=False)
        monkeypatch.setenv("OTHER_KEY", "alt")
        handler.responses.append((200, _ok_body()))
        backend = HttpBackend(url, api_key_env="OTHER_KEY")
        backend.complete(request_for())
        assert handler.seen[0]["auth"] == "Bearer alt"


class _CutShortHandler(BaseHTTPRequestHandler):
    """Announces a 1,000-byte body, sends a few bytes of it, then closes."""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", "1000")
        self.end_headers()
        self.wfile.write(b'{"choices": [')
        self.close_connection = True

    def log_message(self, *args):
        pass


class _RedirectHandler(BaseHTTPRequestHandler):
    """Redirects every POST to ``target`` and records the headers of every request."""

    target = ""
    seen: list[tuple[str, str | None]] = []

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).seen.append(("POST", self.headers.get("Authorization")))
        self.send_response(302)
        self.send_header("Location", type(self).target)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_GET(self):
        type(self).seen.append(("GET", self.headers.get("Authorization")))
        raw = json.dumps(_ok_body()).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


class _RepostHandler(BaseHTTPRequestHandler):
    """Redirects a POST to ``/v1/chat/completions`` with ``status`` to ``target``; answers any other path.

    Records the path, token and payload of every request it receives.
    """

    status = 307
    target = ""
    seen: list[tuple[str, str | None, dict]] = []

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        type(self).seen.append((self.path, self.headers.get("Authorization"), payload))
        if self.path == "/v1/chat/completions":
            self.send_response(type(self).status)
            self.send_header("Location", type(self).target)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        raw = json.dumps(_ok_body(f"served at {self.path}")).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


class TestHttpTransport:
    """What the HTTP client under ``HttpBackend`` must keep, whichever it is."""

    def test_body_cut_short_is_transient(self, monkeypatch):
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        with serving(_CutShortHandler) as url:
            with pytest.raises(TransientBackendError):
                HttpBackend(url).complete(request_for())

    @pytest.mark.parametrize("base_url", ["api.example.com", "127.0.0.1:9"])
    def test_base_url_without_scheme_raises_at_construction(self, monkeypatch, base_url):
        # urllib cannot post to it, so every call would fail and be retried.
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        with pytest.raises(ValueError, match=f"got {base_url!r}"):
            HttpBackend(base_url)

    def test_client_error_message_has_status_and_start_of_body(self, http_server, monkeypatch):
        url, handler = http_server
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        handler.responses.append((422, "x" * 150 + "y" * 150))
        with pytest.raises(FatalBackendError) as info:
            HttpBackend(url).complete(request_for())
        assert str(info.value) == "HTTP 422: " + "x" * 150 + "y" * 50

    def test_token_is_not_sent_to_a_redirect_target(self, monkeypatch):
        monkeypatch.setenv("ABSIEVE_API_KEY", "sk-secret")
        _RedirectHandler.seen = []
        with serving(_RedirectHandler) as other, serving(_RedirectHandler) as first:
            _RedirectHandler.target = other + "/elsewhere"
            HttpBackend(first).complete(request_for())
        assert _RedirectHandler.seen == [("POST", "Bearer sk-secret"), ("GET", None)]

    def test_importing_the_cli_does_not_import_requests(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, absieve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_importing_the_cli_loads_no_http_stack_or_thread_pool(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        heavy = ["http.client", "urllib.request", "ssl", "email.parser", "concurrent.futures"]
        code = f"import sys, absieve.cli; print([m for m in {heavy!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_same_origin_307_reposts_the_body_with_the_token(self, monkeypatch):
        monkeypatch.setenv("ABSIEVE_API_KEY", "sk-secret")
        _RepostHandler.status, _RepostHandler.seen = 307, []
        with serving(_RepostHandler) as url:
            _RepostHandler.target = "/v2/chat/completions"
            result = HttpBackend(url).complete(request_for())
        assert result.text == "served at /v2/chat/completions"
        (first_path, first_auth, payload), second = _RepostHandler.seen
        assert (first_path, first_auth) == ("/v1/chat/completions", "Bearer sk-secret")
        assert second == ("/v2/chat/completions", "Bearer sk-secret", payload)
        assert payload["messages"] == [{"role": "user", "content": "screen this"}]

    def test_cross_origin_308_reposts_the_body_without_the_token(self, monkeypatch):
        monkeypatch.setenv("ABSIEVE_API_KEY", "sk-secret")
        _RepostHandler.status, _RepostHandler.seen = 308, []
        # Same host, another port: another origin.
        with serving(_RepostHandler) as other, serving(_RepostHandler) as first:
            _RepostHandler.target = other + "/moved"
            result = HttpBackend(first).complete(request_for())
        assert result.text == "served at /moved"
        (first_path, first_auth, payload), second = _RepostHandler.seen
        assert (first_path, first_auth) == ("/v1/chat/completions", "Bearer sk-secret")
        assert second == ("/moved", None, payload)

    def test_redirect_loop_stops_at_the_hop_limit(self, monkeypatch):
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        _RepostHandler.status, _RepostHandler.seen = 307, []
        with serving(_RepostHandler) as url:
            _RepostHandler.target = "/v1/chat/completions"
            with pytest.raises(FatalBackendError, match="^HTTP 307: $"):
                HttpBackend(url).complete(request_for())
        assert len(_RepostHandler.seen) == 1 + MAX_REDIRECTS

    def test_redirect_to_another_scheme_is_not_followed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ABSIEVE_API_KEY", "k")
        (tmp_path / "reply.json").write_text(json.dumps(_ok_body()))
        _RepostHandler.status, _RepostHandler.seen = 308, []
        with serving(_RepostHandler) as url:
            _RepostHandler.target = (tmp_path / "reply.json").as_uri()
            with pytest.raises(FatalBackendError, match="^HTTP 308: $"):
                HttpBackend(url).complete(request_for())
        assert len(_RepostHandler.seen) == 1
