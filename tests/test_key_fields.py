"""Each config key is declared once, on its spec field.

``config.KEY_FIELDS`` maps every key of ``config.KEYS`` to the
``ExperimentConfig`` attribute of its section and its spec field; parsing,
validation, ``with_override`` and the echo all read it. These tests pin that
the map covers every spec field once, that a key parsed and a key overridden
land on the same field, and that README's key table names the same keys.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest
from test_key_table import ALTERNATIVES

from ccdlab import config
from ccdlab.config import KEY_FIELDS, KEYS, ExperimentConfig, Key, config_to_dict, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _spec_fields() -> list[tuple[str, str]]:
    return [
        (section.name, f.name)
        for section in dataclasses.fields(ExperimentConfig)
        for f in dataclasses.fields(section.default_factory)
    ]


def test_each_spec_field_carries_exactly_one_key():
    fields = _spec_fields()
    assert len(fields) == len(set(fields)) == len(KEYS) == 31
    assert list(KEY_FIELDS) == list(KEYS)
    assert [(attr, f.name) for attr, f in KEY_FIELDS.values()] == fields
    for key, (attr, f) in KEY_FIELDS.items():
        assert isinstance(f.metadata["key"], Key) and KEYS[key] is f.metadata["key"]
        assert f.default == getattr(getattr(ExperimentConfig(), attr), f.name)
    # the two keys named other than their fields
    assert KEY_FIELDS["algorithm.K"][1].name == "cycles"
    assert KEY_FIELDS["lambda.values"][0] == "lam"


@pytest.mark.parametrize("key", list(KEYS))
def test_a_key_overrides_the_field_that_parsing_sets(key, monkeypatch):
    # the cross-field rules would reject most one-key configs; only where
    # each key lands matters here
    monkeypatch.setattr(config, "validate", lambda cfg, key_lines=None: [])
    attr, f = KEY_FIELDS[key]
    token = next(t for t in ALTERNATIVES[key] if KEYS[key].parse(t) != f.default)
    parsed = parse_config(f"{key} = {token}\n")
    assert parsed == ExperimentConfig().with_override(key, KEYS[key].parse(token))
    default = config_to_dict(ExperimentConfig())
    changed = [k for k, v in config_to_dict(parsed).items() if v != default[k]]
    assert changed == [f"{key.split('.')[0]}.{f.name}"]
    assert getattr(getattr(parsed, attr), f.name) == KEYS[key].parse(token)


@pytest.mark.parametrize(
    "path", ["algorithm.cycles", "lam.values", "lambda.mode", "problem.nope", "cycles", "K", ""]
)
def test_a_path_that_is_not_a_key_raises_key_error(path):
    with pytest.raises(KeyError):
        ExperimentConfig().with_override(path, 1)


def test_readme_key_table_names_exactly_the_keys():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | bound | read by |") + 2
    named = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        named += re.findall(r"`([^`]+)`", line.split("|")[1])
    assert sorted(named) == sorted(KEYS)
