"""Memo and store keys are pinned across the engine-name aliases.

``"vectorized"`` and ``"streaming"`` name one fast engine.  The digests
below were computed before the engine's host-tuning fields were removed
from :class:`~repro.core.config.SpArchConfig`; they must never change, or
every existing disk memo and sweep store would silently stop matching.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import SpArchConfig
from repro.engines.sparch import SpArchEngine
from repro.experiments.runner import ExperimentRunner, config_fingerprint
from repro.matrices import random_matrix

UNFORCED_CONFIG = \
    "365b254c8f83cb054a5f9860570d6ad01d53b562cdbf1d34dfc48312268a3295"
UNFORCED_POINT = \
    "073eed22808f7e0acf07bf4f13373fa3129dd6186eda1ca54d4ea91674436578"

#: engine -> (forced config fingerprint, forced point key)
FORCED = {
    "vectorized": (
        "523703fe98e368cd82e23f2866ce090cc3c27582b1877412447837bbcd5e2acd",
        "99d591288b7f4b75eaaaa8dad119415277381b12733f660ff4cf482a3954140f"),
    "streaming": (
        "a770afcf6668f0e3adaecfd5bbde7a6042c13c1d14fc00268894510cc817383d",
        "79f26d9383ce9371a8dc1430a68b5441ff4647c335eabb2981215c4eae694dd4"),
}


@pytest.fixture(scope="module")
def operand():
    return random_matrix(64, 64, 256, seed=3)


@pytest.mark.parametrize("engine", sorted(FORCED))
def test_config_fingerprints_are_pinned(engine):
    config = SpArchConfig(engine=engine)
    assert config_fingerprint(config) == UNFORCED_CONFIG
    assert (config_fingerprint(config, include_engine=True)
            == FORCED[engine][0])


@pytest.mark.parametrize("engine", sorted(FORCED))
def test_point_keys_are_pinned(engine, operand):
    sparch = SpArchEngine(SpArchConfig(engine=engine))
    assert ExperimentRunner().point_key(sparch, operand) == UNFORCED_POINT
    forced = ExperimentRunner(engine=engine)
    assert forced.point_key(sparch, operand) == FORCED[engine][1]
    assert forced.point_key("sparch", operand) == FORCED[engine][1]


def test_config_has_no_host_tuning_fields():
    names = {field.name for field in dataclasses.fields(SpArchConfig)}
    assert not {name for name in names if name.startswith("streaming_")}
