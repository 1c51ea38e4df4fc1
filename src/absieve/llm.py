"""Chat-completion backends and strict parsing of decision responses.

Two backends satisfy the same ``complete(request)`` contract: an HTTP client
speaking the OpenAI-compatible chat-completions protocol, and a deterministic
scripted mock for offline runs and tests. Neither retries internally; retry
policy belongs to the runner.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple
from urllib.parse import urljoin, urlsplit

from .corpus import Decision
from .prompts import PromptText

API_KEY_ENV = "ABSIEVE_API_KEY"
# How many 307/308 redirects one call follows before the status fails the row.
MAX_REDIRECTS = 5


class BackendError(Exception):
    pass


class TransientBackendError(BackendError):
    """Rate limits, 5xx responses, timeouts: safe to retry."""


class FatalBackendError(BackendError):
    """Client errors and malformed responses: retrying will not help."""


class AuthMissing(BackendError):
    pass


class _CompletionRequestFields(NamedTuple):
    model: str
    prompt: PromptText
    temperature: float
    max_output_tokens: int
    dataset_name: str | None
    row_index: int | None


class CompletionRequest(_CompletionRequestFields):
    """One backend call. ``dataset_name``/``row_index`` identify the row so
    the scripted mock can replay a response for it; the HTTP backend ignores
    them. Invalid values raise ``ValueError``, from ``_make``/``_replace`` too."""

    __slots__ = ()

    def __new__(
        cls, model, prompt, temperature=0.0, max_output_tokens=8, dataset_name=None, row_index=None
    ):
        if not prompt.body:
            raise ValueError("prompt must be non-empty")
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        if max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        return tuple.__new__(cls, (model, prompt, temperature, max_output_tokens, dataset_name, row_index))

    _make = classmethod(lambda cls, values: cls(*values))  # namedtuple's _make skips __new__


class CompletionResult(NamedTuple):
    text: str
    input_tokens: int
    output_tokens: int
    latency_ms: float


def count_tokens_estimate(text: str) -> int:
    """Heuristic token count: one token per four characters, rounded up.

    Used for cost projection and as a fallback when a backend does not report
    true usage; real usage counts always win when available.
    """
    return math.ceil(len(text) / 4)


_LABEL_WORD = re.compile(r"\b(included|excluded)\b")
_QUOTE_CHARS = "\"'`"
_TRAILING_PUNCT = ".,:;!"


def parse_decision(text: str) -> Decision:
    """Map a raw model response to a :class:`Decision`.

    The response is normalized (trimmed, lowercased, surrounding quotes and
    trailing punctuation stripped, repeatedly until stable) and accepted if
    it then equals one of the two labels. Otherwise the text is scanned for
    whole-word label occurrences; exactly one distinct label wins, anything
    else is ``UNPARSEABLE``. Never raises: an unusable response is a value,
    not a failure.
    """
    s = text.lower()
    prev = None
    while s != prev:
        prev = s
        s = s.strip().strip(_QUOTE_CHARS).rstrip(_TRAILING_PUNCT)
    if s == "included":
        return Decision.INCLUDED
    if s == "excluded":
        return Decision.EXCLUDED
    found = set(_LABEL_WORD.findall(text.lower()))
    if found == {"included"}:
        return Decision.INCLUDED
    if found == {"excluded"}:
        return Decision.EXCLUDED
    return Decision.UNPARSEABLE


def _origin(url: str) -> tuple[str, str | None, int | None] | None:
    """Scheme, host and port of ``url`` (the scheme's default if it has none); ``None`` if unparseable."""
    try:
        parts = urlsplit(url)
        port = {"http": 80, "https": 443}.get(parts.scheme) if parts.port is None else parts.port
    except ValueError:  # a port that is not a number in 0-65535, or a bad IPv6 host
        return None
    return parts.scheme, parts.hostname, port


def is_http_url(url: str) -> bool:
    """Whether urllib can post to ``url``: an http(s) scheme, a host and a usable port.

    Anything else would fail every call with an error urllib raises as
    ``ValueError``, which would be retried as transient.
    """
    scheme, host, port = _origin(url) or ("", None, None)
    return scheme in ("http", "https") and bool(host) and port != 0


class HttpBackend:
    """OpenAI-compatible chat-completions client.

    POSTs to ``{base_url}/v1/chat/completions`` with the prompt as a single
    user message, over one ``urllib.request`` connection per call (proxies
    from the environment). For an https ``base_url`` every call shares one
    TLS context, built with the backend and verified against the default
    trust store, so the store is read once, not per call. A 307/308 redirect
    is followed by posting the same body to its ``Location``, at most
    ``MAX_REDIRECTS`` times; urllib itself follows 301/302/303 as a GET. The
    bearer token comes from the environment (never from a config file) and is
    sent only to ``base_url``'s scheme, host and port. A ``base_url`` that
    :func:`is_http_url` rejects raises ``ValueError``, and a missing
    credential :class:`AuthMissing`, at construction, before any network
    traffic.
    """

    def __init__(self, base_url: str, api_key_env: str = API_KEY_ENV, timeout_s: float = 120.0):
        if not is_http_url(base_url):
            raise ValueError(f"base_url must be an http:// or https:// URL with a host, got {base_url!r}")
        key = os.environ.get(api_key_env, "")
        if not key:
            raise AuthMissing(f"environment variable {api_key_env} is not set")
        # Loaded here rather than at import, so commands that build no
        # HttpBackend (mock runs, evaluate) never load the HTTP and TLS stack.
        import http.client
        import ssl
        import urllib.error
        import urllib.request

        self._urllib = urllib
        # Failing to connect, send or read, or a redirect target urllib cannot parse (ValueError).
        self._transport_errors = (OSError, http.client.HTTPException, ValueError)
        self._url = base_url.rstrip("/") + "/v1/chat/completions"
        self._origin = _origin(self._url)
        handlers = []
        if self._origin[0] == "https":
            # The context http.client would build for each connection, built once.
            context = ssl._create_default_https_context()
            context.set_alpn_protocols(["http/1.1"])
            if context.post_handshake_auth is not None:
                context.post_handshake_auth = True
            handlers.append(urllib.request.HTTPSHandler(context=context))
        self._opener = urllib.request.build_opener(*handlers)
        self._key = key
        self._timeout = timeout_s

    def _post(self, url: str, data: bytes) -> tuple[int, str | None, bytes]:
        """POST ``data`` to ``url`` once: the response's status, ``Location`` and body."""
        post = self._urllib.request.Request(url, data, {"Content-Type": "application/json"})
        if _origin(url) == self._origin:
            # Unredirected: urllib's own 301/302/303 handling never forwards the token.
            post.add_unredirected_header("Authorization", f"Bearer {self._key}")
        try:
            with self._opener.open(post, timeout=self._timeout) as response:
                return response.status, response.headers.get("Location"), response.read()
        except self._urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.headers.get("Location"), exc.read()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        payload = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt.body}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        data = json.dumps(payload).encode()
        started = time.monotonic()
        url = self._url
        # A transport failure is transient; an HTTP status is judged below.
        try:
            for _ in range(MAX_REDIRECTS + 1):
                status, location, raw = self._post(url, data)
                if status not in (307, 308) or not location:
                    break
                url = urljoin(url, location)
                if urlsplit(url).scheme not in ("http", "https"):
                    break
        except self._transport_errors as exc:
            raise TransientBackendError(str(exc)) from exc
        latency_ms = (time.monotonic() - started) * 1000.0

        if status == 429 or status >= 500:
            raise TransientBackendError(f"HTTP {status}")
        if status != 200:
            raise FatalBackendError(f"HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}")

        try:
            body = json.loads(raw)
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise FatalBackendError(f"malformed response body: {exc}") from exc
        if not isinstance(text, str):
            raise FatalBackendError("response content is not a string")

        usage = body.get("usage")
        usage = usage if isinstance(usage, dict) else {}
        return CompletionResult(
            text=text,
            input_tokens=_token_count(usage.get("prompt_tokens"), request.prompt.body),
            output_tokens=_token_count(usage.get("completion_tokens"), text),
            latency_ms=latency_ms,
        )


def _token_count(reported: object, text: str) -> int:
    """The count a backend reported if it is an int >= 0 and not a bool, else ``text``'s estimate."""
    return reported if type(reported) is int and reported >= 0 else count_tokens_estimate(text)


class InjectedFailure(NamedTuple):
    status: int
    count: int


class MockScript(NamedTuple):
    """Scripted responses keyed by ``(dataset_name, row_index)``.

    The file form is a JSON object whose keys are ``"dataset/row"`` strings
    mapping to response text, with two reserved keys: ``"default"`` (the
    response for unscripted rows) and ``"failures"`` (mapping ``"dataset/row"``
    to ``{"status": ..., "count": ...}``, errors injected before the scripted
    response is served).
    """

    responses: Mapping[tuple[str, int], str] = MappingProxyType({})
    default: str = ""
    failures: Mapping[tuple[str, int], InjectedFailure] = MappingProxyType({})

    @staticmethod
    def _parse_key(key: str) -> tuple[str, int]:
        dataset, _, row = key.rpartition("/")
        if not dataset:
            raise ValueError(f"mock script key {key!r} is not of the form 'dataset/row'")
        return dataset, int(row)

    @classmethod
    def from_dict(cls, data: dict) -> "MockScript":
        responses: dict[tuple[str, int], str] = {}
        failures: dict[tuple[str, int], InjectedFailure] = {}
        default = ""
        for key, value in data.items():
            if key == "default":
                default = str(value)
            elif key == "failures":
                for fkey, details in value.items():
                    failures[cls._parse_key(fkey)] = InjectedFailure(
                        status=int(details["status"]), count=int(details["count"])
                    )
            else:
                responses[cls._parse_key(key)] = str(value)
        return cls(responses=responses, default=default, failures=failures)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class MockCall(NamedTuple):
    dataset_name: str | None
    row_index: int | None
    started_at: float
    in_flight: int


class MockBackend:
    """Deterministic scripted stand-in for the HTTP backend.

    Identical scripts and call sequences yield identical results, which is
    what makes end-to-end reruns byte-identical. The backend also instruments
    itself: call start times and concurrent in-flight counts are recorded so
    tests can assert rate-limit spacing and concurrency bounds.
    """

    def __init__(self, script: MockScript, delay_s: float = 0.0):
        self._script = script
        self._delay = delay_s
        self._lock = threading.Lock()
        self._failures_left = {key: f.count for key, f in script.failures.items()}
        self._in_flight = 0
        self.calls: list[MockCall] = []
        self.max_in_flight_observed = 0

    @property
    def call_count(self) -> int:
        with self._lock:
            return len(self.calls)

    def start_times(self) -> list[float]:
        with self._lock:
            return [c.started_at for c in self.calls]

    def complete(self, request: CompletionRequest) -> CompletionResult:
        key = (request.dataset_name, request.row_index)
        with self._lock:
            self._in_flight += 1
            self.max_in_flight_observed = max(self.max_in_flight_observed, self._in_flight)
            self.calls.append(
                MockCall(request.dataset_name, request.row_index, time.monotonic(), self._in_flight)
            )
            fail_status = None
            if self._failures_left.get(key, 0) > 0:
                self._failures_left[key] -= 1
                fail_status = self._script.failures[key].status
        try:
            if fail_status is not None:
                if fail_status == 429 or fail_status >= 500:
                    raise TransientBackendError(f"injected HTTP {fail_status}")
                raise FatalBackendError(f"injected HTTP {fail_status}")
            if self._delay:
                time.sleep(self._delay)
            text = self._script.responses.get(key, self._script.default)
            return CompletionResult(
                text=text,
                input_tokens=count_tokens_estimate(request.prompt.body),
                output_tokens=count_tokens_estimate(text),
                latency_ms=self._delay * 1000.0,
            )
        finally:
            with self._lock:
                self._in_flight -= 1
