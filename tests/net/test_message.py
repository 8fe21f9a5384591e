"""Unit tests for the Message value object."""

import math

from repro.net import DEFAULT_MESSAGE_SIZE, Message


def test_defaults():
    msg = Message(0, 1, "port", "kind")
    assert msg.payload == {}
    assert msg.size == DEFAULT_MESSAGE_SIZE
    assert math.isnan(msg.sent_at)
    assert msg.seq == -1


def test_payload_not_shared_between_messages():
    a = Message(0, 1, "p", "k")
    b = Message(0, 1, "p", "k")
    a.payload["x"] = 1
    assert b.payload == {}


def test_repr_mentions_route_and_kind():
    msg = Message(3, 7, "intra/0", "token", {"q": []})
    text = repr(msg)
    assert "token" in text and "3->7" in text and "intra/0" in text


def test_custom_size():
    msg = Message(0, 1, "p", "k", size=512)
    assert msg.size == 512
