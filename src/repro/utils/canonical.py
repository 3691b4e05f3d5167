"""Canonical JSON encoding and content addressing.

Every cacheable object in the library exposes a ``canonical()`` dict; this
module turns those payloads into stable content addresses. The encoding is
deterministic — sorted keys, no whitespace drift — so two structurally
identical payloads digest identically on any platform and Python version.

A payload may carry :class:`Encoded` fragments: values whose canonical
text was produced once and is spliced in verbatim. A workload's layer list
is 20–50 KB of JSON that every scenario, engine and sweep-cell key of that
workload contains; encoding it once per workload instance instead of once
per key is what keeps key derivation cheap. A payload digests to the same
address with or without its fragments pre-encoded.

Shared by :mod:`repro.explore.keys` (sweep-cell cache keys) and
:mod:`repro.api.scenario` (scenario identity for service-level memoization).
"""

from __future__ import annotations

import hashlib
import json


class Encoded:
    """A payload's canonical JSON text, encoded once.

    :func:`canonical_json` writes :attr:`text` wherever the instance
    appears inside a payload, exactly as the original payload would have
    been encoded there.
    """

    __slots__ = ("text",)

    def __init__(self, payload: object):
        self.text = canonical_json(payload)


#: What an :class:`Encoded` value encodes as before its text replaces it.
#: A payload string can only encode to the same token if it holds a NUL
#: character; :func:`canonical_json` detects that and decodes instead.
_SLOT = "\x00"
_SLOT_TOKEN = json.dumps(_SLOT)


def canonical_json(payload: object) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift."""
    fragments: list[str] = []

    def slot(value: object) -> str:
        if not isinstance(value, Encoded):
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        fragments.append(value.text)
        return _SLOT

    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=slot)
    if not fragments:
        return text
    pieces = text.split(_SLOT_TOKEN)
    if len(pieces) != len(fragments) + 1:
        return canonical_json(_decoded(payload))
    spliced = [pieces[0]]
    for fragment, piece in zip(fragments, pieces[1:]):
        spliced += (fragment, piece)
    return "".join(spliced)


def _decoded(payload: object) -> object:
    """``payload`` with every :class:`Encoded` value decoded back."""
    if isinstance(payload, Encoded):
        return json.loads(payload.text)
    if isinstance(payload, dict):
        return {key: _decoded(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_decoded(value) for value in payload]
    return payload


def digest(payload: object) -> str:
    """SHA-256 hex digest of a payload's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
