"""Malformed repro bundles fail with one typed error, never a traceback.

:func:`load_bundle` reads files a user points ``--replay`` at, so any
byte string may arrive.  Whatever the content, the only error allowed to
escape is :class:`BundleFormatError` (a ``ValueError``); the CLI turns it
into a one-line message and exit status 2.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import (
    BundleFormatError,
    OracleResult,
    ReproBundle,
    generate_case,
    load_bundle,
    replay_bundle,
)
from repro.check.__main__ import main

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def valid_bundle_dict():
    spec = generate_case(0, 0).spec
    return ReproBundle(
        master_seed=0,
        case_index=0,
        spec=spec,
        shrunk_spec=spec,
        failures=(OracleResult("batched-vs-legacy", False, "planted"),),
    ).to_dict()


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bundles")


def load_bytes(directory, data):
    path = directory / "bundle.json"
    path.write_bytes(data)
    return load_bundle(str(path))


def assert_only_typed_error(load):
    try:
        bundle = load()
    except BundleFormatError:
        return
    assert isinstance(bundle, ReproBundle)


@st.composite
def mutated_bundles(draw):
    """A valid bundle with one field (top-level or inside a spec)
    replaced by an arbitrary JSON value or deleted."""
    payload = valid_bundle_dict()
    target = payload
    if draw(st.booleans()):
        target = payload[draw(st.sampled_from(["spec", "shrunk_spec"]))]
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON_VALUES)
    return payload


class TestMalformedBundles:
    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            '{"format": "repro.check/bundle/1"}',
            "[" * 100_000,
            '{"format": "repro.check/bundle/1", "spec": 5, "shrunk_spec": 5}',
            '{"format": "repro.check/bundle/0"}',
            "",
            "not json",
        ],
        ids=["list", "no-spec", "deep", "int-spec", "old-format", "empty",
             "garbage"],
    )
    def test_reported_reproductions(self, bundle_dir, text):
        with pytest.raises(BundleFormatError):
            load_bytes(bundle_dir, text.encode())

    def test_typed_error_is_a_value_error(self):
        assert issubclass(BundleFormatError, ValueError)

    def test_valid_bundle_still_loads(self, bundle_dir):
        payload = valid_bundle_dict()
        bundle = load_bytes(bundle_dir, json.dumps(payload).encode())
        assert bundle.to_dict() == payload

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, bundle_dir, data):
        assert_only_typed_error(lambda: load_bytes(bundle_dir, data))

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_arbitrary_json_values(self, value):
        assert_only_typed_error(lambda: ReproBundle.from_dict(value))

    @settings(max_examples=300, deadline=None)
    @given(mutated_bundles())
    def test_one_field_mutated(self, payload):
        assert_only_typed_error(lambda: ReproBundle.from_dict(payload))

    @pytest.mark.parametrize("word", ["ab", "0 1", 7])
    def test_codeword_that_is_not_bits_is_rejected_at_load(
        self, bundle_dir, word
    ):
        # Accepted at load, such a word would only fail once an oracle
        # tried to write it on the board, with an untyped error.
        payload = valid_bundle_dict()
        payload["shrunk_spec"]["codes"][0][0] = word
        with pytest.raises(BundleFormatError, match="position 0"):
            load_bytes(bundle_dir, json.dumps(payload).encode())

    def test_unknown_oracle_name_fails_typed_at_replay(self, bundle_dir):
        payload = valid_bundle_dict()
        payload["failures"][0]["oracle"] = "no-such-oracle"
        path = bundle_dir / "unknown-oracle.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BundleFormatError, match="no-such-oracle"):
            replay_bundle(str(path))


class TestReplayCli:
    @pytest.mark.parametrize(
        "text", ["[1,2]", "[" * 100_000, '{"format": 7}']
    )
    def test_malformed_bundle_exits_2_with_message(
        self, tmp_path, capsys, text
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot replay {path}: ")
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["--replay", str(path)]) == 2
        assert "No such file" in capsys.readouterr().err
