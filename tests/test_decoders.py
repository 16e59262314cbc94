"""Every document decoder reads the encoder's JSON types and nothing else.

A value of any other JSON type is a ConfigError, never a misread and never
another exception.
"""

import copy
import json
import re
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicert.catalog import load_builtin
from orbicert.certifier import Certificate, certify, decode_multiplicity, decode_number
from orbicert.ffheights import realization_from_config
from orbicert.lattice import ConfigError, SurfaceConfig, load_json
from orbicert.orbifold import PullbackProfile
from orbicert.positivity import WeightedBoundary

FOUR_LINES = load_builtin("four-lines")
WEIGHTS = WeightedBoundary.make([4, 4, 4, 3])
PROFILE = PullbackProfile.make([("a", {0: 2, 1: 1}), ("b", {0: 3}), ("c", {2: 4})], 4)


@lru_cache(maxsize=None)
def _certificate_text() -> str:
    # with multiplicities the certificate carries a constants chain
    return certify(FOUR_LINES, WEIGHTS, [1500000] * 4).to_json()


def _certificate_doc() -> dict:
    return json.loads(_certificate_text())


def _with(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# -- each misread the decoders made before they checked types ----------------------


@pytest.mark.parametrize(
    "path, value, message",
    [
        # bool("false") is True, int(1.7) is 1
        (("version",), True, "version must be int, not True"),
        (("components", 0, "filtration_inequality"), "false",
         "filtration_inequality must be bool, not 'false'"),
        (("components", 0, "exceeds_weight"), 1, "exceeds_weight must be bool, not 1"),
        (("components", 0, "degree"), 1.7, "degree must be int, not 1.7"),
        (("components", 0, "index"), True, "index must be int, not True"),
        (("multiplicities", 0), 1.7, "multiplicity must be int, not 1.7"),
        (("overall",), 1, "overall must be str, not 1"),
        (("first_failure",), False, "first_failure must be str or null, not False"),
        (("constants",), [], "constants must be dict or null, not []"),
        (("config",), "four-lines", "config must be dict, not 'four-lines'"),
        (("hypotheses", 0, "status"), None, "hypothesis status must be str, not None"),
        (("weights", 0, "value"), 4, "value must be str, not 4"),
        (("components", 3, "truncation_root", "delta"), "3", "delta must be int, not '3'"),
        # a value of the right type that does not parse
        (("weights", 0, "value"), "four",
         "malformed certificate: Invalid literal for Fraction: 'four'"),
        (("weights", 0, "value"), "1/0", "malformed certificate: Fraction(1, 0)"),
    ],
)
def test_certificate_misreads_are_config_errors(path, value, message):
    doc = _with(_certificate_doc(), path, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Certificate.from_json_dict(doc)


def test_multiplicity_misreads_are_config_errors():
    for raw in [1.7, True, False, 7.0, float("inf"), "1.5", "+7", "seven", [], {}]:
        with pytest.raises(ConfigError):
            decode_multiplicity(raw)
    assert decode_multiplicity(7) == 7
    assert decode_multiplicity("7") == 7
    for raw in ["inf", "Inf", "INF", None]:
        assert decode_multiplicity(raw) == float("inf")


def test_number_misreads_are_config_errors():
    # Fraction(0.1) is 3602879701896397/36028797018963968
    with pytest.raises(ConfigError, match=r"^value must be str, not 0\.1$"):
        decode_number({"kind": "rational", "value": 0.1})
    with pytest.raises(ConfigError, match="^delta must be int, not 3.0$"):
        decode_number({"kind": "quadratic", "a": "15", "b": "-4", "delta": 3.0})
    with pytest.raises(ConfigError, match="^a must be str, not 15$"):
        decode_number({"kind": "quadratic", "a": 15, "b": "-4", "delta": 3})
    with pytest.raises(ConfigError, match="^number kind must be str, not 1$"):
        decode_number({"kind": 1, "value": "1"})
    with pytest.raises(ConfigError, match="^unknown number kind 'real'$"):
        decode_number({"kind": "real", "value": "1"})


def test_profile_misreads_are_config_errors():
    doc = PROFILE.to_json_dict()
    # int(1.9) is 1
    with pytest.raises(ConfigError, match=r"^bad contact order 1\.9 at point a$"):
        PullbackProfile.from_json_dict(_with(doc, ("points", 0, "contacts", 1, 1), 1.9))
    with pytest.raises(ConfigError, match="^bad component index '0'$"):
        PullbackProfile.from_json_dict(_with(doc, ("points", 1, "contacts", 0, 0), "0"))
    with pytest.raises(ConfigError, match="^components must be int, not 4.0$"):
        PullbackProfile.from_json_dict(_with(doc, ("components",), 4.0))
    with pytest.raises(ConfigError, match="^profile is missing key 'components'$"):
        PullbackProfile.from_json_dict({"points": doc["points"]})
    with pytest.raises(ConfigError, match="^malformed profile JSON"):
        PullbackProfile.from_json("{")
    with pytest.raises(ConfigError, match="^profile JSON must be an object$"):
        PullbackProfile.from_json("[]")


def test_realization_misreads_are_config_errors():
    doc = FOUR_LINES.to_json_dict()
    # int(0.4) is 0, and (0, 1, 1) is a valid point on the first line
    bad = _with(doc, ("metadata", "realization", "points", "P1.1", 0), 0.4)
    with pytest.raises(ConfigError, match=r"^point coordinate must be int, not 0\.4$"):
        realization_from_config(SurfaceConfig.from_json_dict(bad))


def test_load_json_needs_an_object():
    assert load_json('{"a": 1}', "config") == {"a": 1}
    with pytest.raises(ConfigError, match="^config JSON must be an object$"):
        load_json("[1]", "config")
    with pytest.raises(ConfigError, match="^malformed certificate JSON"):
        load_json("[" * 100000, "certificate")


# -- one leaf replaced by a value of another JSON type --------------------------------


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, (*path, i))
    else:
        yield path, doc


_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_VALUE = st.one_of(
    _SCALAR,
    st.lists(_SCALAR, max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALAR, max_size=2),
)


_DOCUMENTS = {
    # a config is read with its realization
    "config": (
        FOUR_LINES.to_json_dict,
        lambda doc: realization_from_config(SurfaceConfig.from_json_dict(doc)),
    ),
    "certificate": (_certificate_doc, Certificate.from_json_dict),
    "profile": (PROFILE.to_json_dict, PullbackProfile.from_json_dict),
}


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(_DOCUMENTS)), st.data())
def test_decoders_accept_or_reject_a_replaced_leaf(name, data):
    build, decode = _DOCUMENTS[name]
    doc = build()
    path, old = data.draw(st.sampled_from(list(_leaves(doc))), label="leaf")
    # bool is not int here, as in the decoders
    value = data.draw(_VALUE.filter(lambda v: type(v) is not type(old)), label="value")
    start = time.perf_counter()
    try:
        decode(_with(doc, path, value))
    except ConfigError:
        pass
    assert time.perf_counter() - start < 1
