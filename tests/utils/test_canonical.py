"""Canonical JSON with pre-encoded fragments."""

import hashlib
import json

import pytest

from repro.utils.canonical import Encoded, canonical_json, digest


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


INNER = {"name": "w", "layers": [{"b": 1.5, "a": [1, 2.0, None, True]}], "z": "é"}


class TestEncodedFragments:
    @pytest.mark.parametrize(
        "build",
        [
            lambda inner: inner,
            lambda inner: {"workload": inner, "weight": 1.0},
            lambda inner: {"b": [{"workload": inner, "weight": 2.0}], "a": 1},
            lambda inner: [inner, 3, inner, {"x": inner}],
            lambda inner: {"outer": {"nested": [[inner]]}, "empty": []},
        ],
    )
    def test_spliced_text_equals_the_expanded_encoding(self, build):
        spliced = canonical_json(build(Encoded(INNER)))
        assert spliced == _reference(build(INNER))
        assert digest(build(Encoded(INNER))) == hashlib.sha256(
            spliced.encode()
        ).hexdigest()

    def test_fragment_of_fragments(self):
        nested = Encoded({"parts": [Encoded(INNER), Encoded([1, 2])]})
        assert canonical_json({"k": nested}) == _reference(
            {"k": {"parts": [INNER, [1, 2]]}}
        )

    @pytest.mark.parametrize(
        "collider",
        ["\x00", 'x"\x00', '"\x00', "\x00\x00", {"\x00": "\x00"}],
    )
    def test_strings_holding_nul_fall_back_exactly(self, collider):
        payload = {"a": collider, "b": Encoded(INNER), "c": [collider, "\x00"]}
        expanded = {"a": collider, "b": INNER, "c": [collider, "\x00"]}
        assert canonical_json(payload) == _reference(expanded)

    def test_unserializable_values_still_raise(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"a": Encoded(INNER), "b": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"b": {1, 2}})

    def test_plain_payloads_unchanged(self):
        payload = {"z": [1.0, 2, None], "a": {"y": "s", "x": 1e-300}}
        assert canonical_json(payload) == _reference(payload)
