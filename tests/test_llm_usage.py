"""A reply whose ``usage`` holds no usable token count is counted by the estimate."""

from __future__ import annotations

import pytest

from absieve.llm import HttpBackend, count_tokens_estimate
from test_llm import PROMPT, _ok_body, http_server, request_for  # noqa: F401  (http_server is a fixture)


@pytest.mark.parametrize(
    "usage",
    ["n/a", [1], {"prompt_tokens": True}, {"prompt_tokens": -3}],
    ids=["string", "list", "bool-count", "negative-count"],
)
def test_unusable_usage_falls_back_to_estimate(http_server, monkeypatch, usage):  # noqa: F811
    url, handler = http_server
    monkeypatch.setenv("ABSIEVE_API_KEY", "k")
    handler.responses.append((200, _ok_body("included", usage)))
    result = HttpBackend(url).complete(request_for())
    assert result.text == "included"
    assert result.input_tokens == count_tokens_estimate(PROMPT.body)
    assert result.output_tokens == count_tokens_estimate("included")
