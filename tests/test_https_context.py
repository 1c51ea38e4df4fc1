"""An HTTPS backend builds one TLS context, and every call it makes shares it.

Left to urllib, each call would build its own context and read the trust
store again, which costs more CPU than all of a row's other local work.
"""

from __future__ import annotations

import ssl

import pytest

from absieve.llm import HttpBackend, TransientBackendError
from test_llm import request_for


def test_https_calls_share_one_verifying_context(monkeypatch):
    monkeypatch.setenv("ABSIEVE_API_KEY", "k")
    built = []
    create = ssl._create_default_https_context

    def counting_create():
        built.append(create())
        return built[-1]

    monkeypatch.setattr(ssl, "_create_default_https_context", counting_create)
    # Nothing listens on the discard port, so each call fails to connect.
    backend = HttpBackend("https://127.0.0.1:9", timeout_s=0.2)
    for _ in range(4):
        with pytest.raises(TransientBackendError):
            backend.complete(request_for())
    assert len(built) == 1
    assert built[0].verify_mode == ssl.CERT_REQUIRED
    assert built[0].check_hostname
