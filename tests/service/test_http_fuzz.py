"""Hostile requests at the HTTP front end.

Whatever bytes a client sends, ``ServiceHttpServer._handle`` either
answers with a status from ``_STATUS_TEXT`` and a JSON body, or closes
the connection without answering.  It never raises: an exception out
of the handler leaves the client with no response at all.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.aio import AsyncServiceRuntime
from repro.service.http import _STATUS_TEXT, ServiceHttpServer

FUZZ = settings(derandomize=True, max_examples=120, deadline=None)

VALID_SUBMIT = {"tenant": "acme", "name": "etl", "tasks": [64, {"size": 32}], "cost": 1.0}


class _Writer:
    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, chunk: bytes) -> None:
        self.data.extend(chunk)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


def _exchange(blob: bytes, **server_kw):
    """Feed ``blob`` to one handler call; return the status, or None
    when the server closed without answering."""

    async def scenario():
        runtime = AsyncServiceRuntime(num_workers=2, duration_fn=lambda lease, spec: 0.0)
        server = ServiceHttpServer(runtime, read_timeout=1.0, **server_kw)
        # The same stream limit start() gives asyncio.start_server.
        reader = asyncio.StreamReader(limit=2 * 8192)
        reader.feed_data(blob)
        reader.feed_eof()
        writer = _Writer()
        await server._handle(reader, writer)
        return writer

    writer = asyncio.run(scenario())
    assert writer.closed
    if not writer.data:
        return None
    head, _, body = bytes(writer.data).partition(b"\r\n\r\n")
    version, code, text = head.split(b"\r\n")[0].decode().split(" ", 2)
    status = int(code)
    assert version == "HTTP/1.1"
    assert text == _STATUS_TEXT[status]
    json.loads(body)
    return status


def _request(method: str, path: str, body: bytes, headers=()) -> bytes:
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers)
    head = f"{method} {path} HTTP/1.1\r\n{extra}Content-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
header_text = st.text(
    st.characters(min_codepoint=32, max_codepoint=255, blacklist_characters="\r\n"),
    max_size=24,
)


@FUZZ
@given(st.binary(max_size=512))
def test_arbitrary_bytes_get_a_status_or_a_close(blob):
    _exchange(blob)


@FUZZ
@given(
    st.sampled_from(["GET", "POST", "PUT", "DELETE", "get", ""]),
    st.sampled_from(["/jobs", "/jobs/", "/jobs/1", "/jobs/1/cancel", "/", "*", "/jobs/../x"]),
    st.lists(st.tuples(header_text, header_text), max_size=6),
    st.binary(max_size=64),
    st.sampled_from([None, "s3cret"]),
)
def test_arbitrary_headers_and_bodies(method, path, headers, body, token):
    status = _exchange(_request(method, path, body, headers), auth_token=token)
    if token is not None and status is not None:
        # Nothing here presents the token, so no request reaches a route.
        assert status in (400, 401, 413, 431)


@FUZZ
@given(json_values)
def test_any_json_body_to_submit_is_answered(value):
    body = json.dumps(value).encode()
    assert _exchange(_request("POST", "/jobs", body)) in (202, 400, 429)


@FUZZ
@given(
    st.sampled_from(["tenant", "name", "tasks", "kind", "cost"]),
    st.one_of(json_values, st.just(KeyError)),
)
def test_mutated_submit_fields_are_answered(key, value):
    fields = dict(VALID_SUBMIT)
    if value is KeyError:
        fields.pop(key, None)
    else:
        fields[key] = value
    body = json.dumps(fields).encode()
    assert _exchange(_request("POST", "/jobs", body)) in (202, 400, 429)


@pytest.mark.parametrize(
    "body",
    [
        b"[1]",
        b'"job"',
        b"null",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"tenant": "t", "name": "j", "tasks": [1], "cost": NaN}',
        b'{"tenant": "t", "name": "j", "tasks": [1], "cost": Infinity}',
        b'{"tenant": "t", "name": "j", "tasks": [true]}',
        b'{"tenant": "t", "name": "j", "tasks": [1e400]}',
        b'{"tenant": "t", "name": "j", "tasks": [{"size": Infinity}]}',
        b'{"tenant": "t", "name": "j", "tasks": [{"size": -Infinity}]}',
        b'{"tenant": "t", "name": "j", "tasks": [{"size": NaN}]}',
        b'{"tenant": "t", "name": "j", "tasks": [{"size": -1}]}',
        b'{"tenant": "t", "name": "j", "tasks": [{"size": true}]}',
        b'{"tenant": "t", "name": "j", "tasks": [1' + b"0" * 400 + b"]}",
    ],
    ids=[
        "list-body",
        "string-body",
        "null-body",
        "deep-nesting",
        "nan-cost",
        "infinite-cost",
        "bool-size",
        "overflowing-size",
        "infinite-object-size",
        "negative-infinite-object-size",
        "nan-object-size",
        "negative-object-size",
        "bool-object-size",
        "huge-int-size",
    ],
)
def test_hostile_submit_bodies_are_400(body):
    assert _exchange(_request("POST", "/jobs", body)) == 400
