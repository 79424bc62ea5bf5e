"""Fingerprint completeness: every :class:`ClusterJob` field is declared
result-affecting (it must move :func:`job_fingerprint`), result-neutral
(it must not), or uncacheable — so a new field cannot silently share
cache entries with results it changes (DESIGN.md §7).

Only fingerprints are computed; no simulation runs.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given
from hypothesis import strategies as st

from repro.interp.runner import ClusterJob, job_fingerprint
from repro.runtime.collectives import (
    COLLECTIVES,
    default_algorithm,
    list_algorithms,
)
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.network import list_models, resolve_model
from repro.transform.options import TransformOptions
from repro.transform.pipeline import list_variants, variant_identity
from tests.programs import direct_1d

RESULT_AFFECTING = {
    "program",
    "nranks",
    "network",
    "cost_model",
    "collective",
    "detect_races",
    "variant",
}
RESULT_NEUTRAL = {"label", "engine_mode"}
#: fingerprinting a job with externals raises: it runs uncached
UNCACHEABLE = {"externals"}

BASE = ClusterJob(program=direct_1d(n=16, nprocs=4, steps=1), nranks=4)


def _distinct_networks():
    """One registered name per distinct parameter set (aliases such as
    ``gmnet``/``mpich-gm`` are the same model)."""
    by_params = {}
    for name in list_models():
        params = json.dumps(
            resolve_model(name).canonical_params(), sort_keys=True
        )
        by_params.setdefault(params, name)
    return sorted(by_params.values())


def _collective_choices():
    """Every non-default single-collective choice, plus the defaults
    (an explicit default algorithm is the same suite as ``None``)."""
    return [None] + [
        {coll: alg}
        for coll in COLLECTIVES
        for alg in list_algorithms(coll)
        if alg != default_algorithm(coll)
    ]


def _variant_choices():
    return [None] + [
        variant_identity(name, TransformOptions(tile_size=4))
        for name in list_variants()
    ]


def _pair(values):
    return st.lists(
        st.sampled_from(values), min_size=2, max_size=2, unique_by=repr
    )


#: two distinct values per result-affecting field
AFFECTING_PAIRS = {
    "program": _pair(
        [direct_1d(n=n, nprocs=4, steps=1) for n in (8, 16, 32)]
    ),
    "nranks": st.lists(
        st.integers(1, 1024), min_size=2, max_size=2, unique=True
    ),
    "network": _pair(_distinct_networks()),
    "cost_model": _pair(
        [DEFAULT_COST_MODEL.scaled(f) for f in (0.25, 0.5, 1.0, 2.0, 8.0)]
    ),
    "collective": _pair(_collective_choices()),
    "detect_races": st.just([True, False]),
    "variant": _pair(_variant_choices()),
}

NEUTRAL_VALUES = {
    "label": st.text(max_size=12),
    "engine_mode": st.sampled_from(["auto", "replay", "full"]),
}


def _fingerprint(**changes) -> str:
    return job_fingerprint(dataclasses.replace(BASE, **changes))


def test_every_field_is_classified():
    names = {f.name for f in dataclasses.fields(ClusterJob)}
    declared = RESULT_AFFECTING | RESULT_NEUTRAL | UNCACHEABLE
    assert names == declared, (
        f"unclassified ClusterJob fields {sorted(names - declared)}; "
        f"declared but missing {sorted(declared - names)}"
    )
    assert not RESULT_AFFECTING & RESULT_NEUTRAL
    assert set(AFFECTING_PAIRS) == RESULT_AFFECTING
    assert set(NEUTRAL_VALUES) == RESULT_NEUTRAL


@given(data=st.data())
def test_result_affecting_fields_move_the_fingerprint(data):
    field = data.draw(st.sampled_from(sorted(RESULT_AFFECTING)))
    a, b = data.draw(AFFECTING_PAIRS[field])
    assert _fingerprint(**{field: a}) != _fingerprint(**{field: b}), field


@given(data=st.data())
def test_result_neutral_fields_keep_the_fingerprint(data):
    field = data.draw(st.sampled_from(sorted(RESULT_NEUTRAL)))
    value = data.draw(NEUTRAL_VALUES[field])
    assert _fingerprint(**{field: value}) == job_fingerprint(BASE), field
