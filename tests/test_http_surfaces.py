"""Wire-format tests for the optional HTTP agent, against a local loopback
chat-completion endpoint.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from sqlmend import orchestrator
from sqlmend.orchestrator import AgentFailure, HttpAgent, build_context


class _Handler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    fail_times = 0
    fail_status = 500
    chat_reply: bytes | None = None  # replaces the chat payload when set

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests.append({"path": self.path, "body": body,
                                    "auth": self.headers.get("Authorization")})
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        data = type(self).chat_reply
        if data is None:
            data = json.dumps({"choices": [{"message": {
                "content": "add_select(title)\nadd_from(episode)"}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def sleeps(monkeypatch):
    waited: list[float] = []
    monkeypatch.setattr(orchestrator, "sleep", waited.append)
    return waited


@pytest.fixture()
def http_server(sleeps):
    _Handler.requests = []
    _Handler.fail_times = 0
    _Handler.fail_status = 500
    _Handler.chat_reply = None
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_http_agent_request_shape(http_server, episode_catalog):
    agent = HttpAgent(endpoint=f"{http_server}/chat", api_key="k", model="test-model")
    ctx = build_context(episode_catalog, "Who wrote the pilot?")
    reply = agent.generate(ctx)
    assert reply == "add_select(title)\nadd_from(episode)"
    body = _Handler.requests[0]["body"]
    assert body["temperature"] == 0
    assert body["max_tokens"] == 300
    assert body["model"] == "test-model"
    assert body["messages"][0]["role"] == "system"
    assert "Who wrote the pilot?" in body["messages"][1]["content"]
    assert "table episode" in body["messages"][1]["content"]


def test_http_agent_retries_transport_failures(http_server, episode_catalog):
    _Handler.fail_times = 2
    agent = HttpAgent(endpoint=f"{http_server}/chat")
    ctx = build_context(episode_catalog, "q")
    assert agent.generate(ctx)  # third attempt succeeds
    assert len(_Handler.requests) == 3


def test_http_agent_persistent_failure_raises(http_server, episode_catalog):
    _Handler.fail_times = 10
    agent = HttpAgent(endpoint=f"{http_server}/chat")
    with pytest.raises(AgentFailure):
        agent.generate(build_context(episode_catalog, "q"))


def test_http_agent_refine_carries_feedback(http_server, episode_catalog, episode_index):
    from sqlmend.actions import parse_actions
    from sqlmend.orchestrator import Feedback
    from sqlmend.retriever import inspect_sequence

    seq = parse_actions('add_select(title)\nadd_from(episode)\n'
                        'add_where(written_by, =, "todd casey")').sequence
    verdicts = inspect_sequence(seq, episode_catalog, episode_index)
    feedback = Feedback(iteration=0, verdicts=verdicts)
    agent = HttpAgent(endpoint=f"{http_server}/chat")
    ctx = build_context(episode_catalog, "q")
    agent.refine(ctx, seq, feedback)
    messages = _Handler.requests[0]["body"]["messages"]
    assert messages[2]["role"] == "assistant"
    assert "add_where(written_by" in messages[2]["content"]
    assert "Todd Casey" in messages[3]["content"]  # candidate surfaced to the agent


@pytest.mark.parametrize("status", [503, 429])
def test_http_agent_retries_server_errors_with_backoff(http_server, sleeps, episode_catalog,
                                                       status):
    _Handler.fail_times, _Handler.fail_status = 2, status
    agent = HttpAgent(endpoint=f"{http_server}/chat")
    assert agent.generate(build_context(episode_catalog, "q"))
    assert len(_Handler.requests) == 3
    assert sleeps == [orchestrator.RETRY_BACKOFF_S, 2 * orchestrator.RETRY_BACKOFF_S]


def test_http_agent_retries_an_unreachable_endpoint(sleeps, episode_catalog, monkeypatch):
    monkeypatch.setattr(orchestrator, "HTTP_RETRIES", 1)
    with socket.socket() as probe:  # a loopback port with nothing listening
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    agent = HttpAgent(endpoint=f"http://127.0.0.1:{port}/chat")
    with pytest.raises(AgentFailure, match="after retries"):
        agent.generate(build_context(episode_catalog, "q"))
    assert sleeps == [orchestrator.RETRY_BACKOFF_S]


def test_http_agent_client_error_fails_at_once(http_server, sleeps, episode_catalog):
    _Handler.fail_times, _Handler.fail_status = 1, 400
    agent = HttpAgent(endpoint=f"{http_server}/chat")
    with pytest.raises(AgentFailure, match="rejected"):
        agent.generate(build_context(episode_catalog, "q"))
    assert len(_Handler.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize("reply", [b"not json", b'{"choices": []}',
                                   b'{"choices": [{"message": {"content": null}}]}'])
def test_http_agent_malformed_reply_fails_at_once(http_server, sleeps, episode_catalog, reply):
    _Handler.chat_reply = reply
    agent = HttpAgent(endpoint=f"{http_server}/chat")
    with pytest.raises(AgentFailure, match="malformed"):
        agent.generate(build_context(episode_catalog, "q"))
    assert len(_Handler.requests) == 1
    assert sleeps == []
