"""The model artifact codec: what it writes reads back to the same bytes,
and a malformed payload is refused with SchemaError and nothing else.

A model file is input from outside the program, so one corruption of a
valid payload, anywhere in its tree, must either load or raise
SchemaError; any other exception would reach the command line as a
traceback.
"""
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowsieve import encode
from flowsieve.autoencoder import Filter1Model, build_ae
from flowsieve.clustering import Filter2Model
from flowsieve.config import ClusteringFeatures, DistanceMode, IpTreatment, NumericTreatment
from flowsieve.encode import EncodingRecipe, PcaBasis
from flowsieve.errors import SchemaError

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _matrices(*shape, elements=FINITE):
    return arrays(np.float64, shape, elements=elements)


@st.composite
def recipes(draw):
    ip_treatment = draw(st.sampled_from(IpTreatment))
    vocabularies, numeric_stats = {}, {}
    for kind, name, _ in encode._active_features(ip_treatment):
        if kind == "categorical":
            vocabularies[name] = tuple(sorted(draw(st.sets(st.text(max_size=4), max_size=3))))
        elif kind != "binary":
            numeric_stats[name] = tuple(sorted(draw(st.tuples(FINITE, FINITE))))
    return EncodingRecipe(
        ip_treatment=ip_treatment,
        numeric_treatment=draw(st.sampled_from(NumericTreatment)),
        vocabularies=vocabularies,
        numeric_stats=numeric_stats,
        columns=encode.recipe_columns(ip_treatment, vocabularies),
    )


@st.composite
def pca_bases(draw):
    d = draw(st.integers(1, 4))
    return PcaBasis(
        mean=draw(_matrices(d)),
        components=draw(_matrices(d, d)),
        explained_variance_ratio=draw(_matrices(d)),
        retained=draw(st.integers(1, d)),
    )


@st.composite
def filter1_models(draw):
    recipe = draw(st.none() | recipes())
    input_dim = draw(st.integers(2, 6)) if recipe is None else recipe.dimension
    model = build_ae(input_dim, seed=draw(st.integers(0, 2**32)))
    model.recipe = recipe
    model.th_frequent = draw(st.none() | FINITE)
    model.pctl_frequent = draw(st.none() | st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
    model.training_history = draw(st.lists(FINITE, max_size=3))
    return model


@st.composite
def filter2_models(draw):
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    feature_space = draw(st.sampled_from(ClusteringFeatures))
    distance_mode = draw(st.sampled_from(DistanceMode))
    pca = pca_bases()
    stds = _matrices(k, d, elements=st.floats(5e-324, 1e300))
    return Filter2Model(
        k_star=k,
        centroids=draw(_matrices(k, d)),
        per_cluster_thresholds=draw(st.none() | st.lists(FINITE, min_size=k, max_size=k)),
        pctl_known=draw(st.none() | st.floats(0.0, 100.0, exclude_min=True)),
        distance_mode=distance_mode,
        feature_space=feature_space,
        per_cluster_std=draw(stds if distance_mode is DistanceMode.NORMALIZED_EUCLIDEAN else st.none() | stds),
        pca_basis=draw(pca if feature_space is ClusteringFeatures.PCA else st.none() | pca),
        silhouette_by_k=draw(st.dictionaries(st.integers(-5, 40), FINITE, max_size=3)),
        notes=draw(st.lists(st.text(max_size=8), max_size=2)),
    )


ARTIFACTS = {
    EncodingRecipe: recipes(),
    PcaBasis: pca_bases(),
    Filter1Model: filter1_models(),
    Filter2Model: filter2_models(),
}


@pytest.mark.parametrize("cls", ARTIFACTS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_written_artifact_reads_back_to_the_same_bytes(cls, data):
    artifact = data.draw(ARTIFACTS[cls])
    text = artifact.to_json()
    assert cls.from_dict(json.loads(text)).to_json() == text
    assert cls.from_dict(artifact.to_dict()).to_json() == text
    keys = list(artifact.to_dict())
    assert keys == ["schema_version"] * (cls.SCHEMA_VERSION is not None) + [f.name for f in fields(cls)]


def _paths(node, path=()):
    """The path of every value below the root of a JSON tree."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _paths(value, path + (key,))


CORRUPTIONS = {
    "drop": None,
    "string": lambda value: "x",
    "nan": lambda value: math.nan,
    "inf": lambda value: math.inf,
    "-inf": lambda value: -math.inf,
    "fraction": lambda value: 2.5,
    "one-short": lambda value: value[:-1] if isinstance(value, list) and value else value,
}


def _loads_or_raises_schema_error(cls, payload, path):
    """Apply each corruption at path in turn, loading after each and then
    putting the value back."""
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    for corrupt in CORRUPTIONS.values():
        if corrupt is None:
            if not isinstance(parent, dict):
                continue
            del parent[key]
        else:
            parent[key] = corrupt(value)
        try:
            cls.from_dict(payload)
        except SchemaError:
            pass
        parent[key] = value


@pytest.mark.parametrize("cls", ARTIFACTS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_corruption_loads_or_raises_schema_error(cls, data):
    # every corruption at every path two levels deep, and at one drawn
    # path of any depth
    payload = json.loads(data.draw(ARTIFACTS[cls]).to_json())
    paths = list(_paths(payload))
    for path in [p for p in paths if len(p) <= 2] + [data.draw(st.sampled_from(paths))]:
        _loads_or_raises_schema_error(cls, payload, path)


@pytest.mark.parametrize(
    "changes",
    [
        {"k_star": 2.0},
        {"per_cluster_thresholds": None},
        {"silhouette_by_k": {"2": 1}},
    ],
)
def test_integral_floats_nulls_and_integer_scores_load(changes):
    payload = {
        "schema_version": 1, "k_star": 2, "centroids": [[0.0, 1.0], [2.0, 3.0]],
        "per_cluster_thresholds": [0.4, 0.6], "distance_mode": "raw_euclidean", "feature_space": "all",
    }
    model = Filter2Model.from_dict({**payload, **changes})
    assert model.k_star == 2 and isinstance(model.k_star, int)
    assert model.silhouette_by_k in ({}, {2: 1.0})


@pytest.mark.parametrize(
    "payload, key",
    [
        ([1, 2], None),
        ({"schema_version": 1, "k_star": True, "centroids": [[0.0]], "distance_mode": "raw_euclidean",
          "feature_space": "all"}, "k_star"),
        ({"schema_version": 1, "k_star": 1, "centroids": [[True]], "distance_mode": "raw_euclidean",
          "feature_space": "all"}, "centroids"),
        ({"schema_version": 1, "k_star": 10**400, "centroids": [[0.0]], "distance_mode": "raw_euclidean",
          "feature_space": "all"}, "k_star"),
        ({"schema_version": 1, "k_star": 1, "centroids": [[0.0]], "distance_mode": "raw_euclidean",
          "feature_space": "all", "notes": None}, "notes"),
    ],
    ids=["not-an-object", "boolean-integer", "boolean-array", "integer-beyond-float-range", "null-notes"],
)
def test_values_json_allows_but_artifacts_do_not(payload, key):
    with pytest.raises(SchemaError, match="JSON object" if key is None else f"invalid {key}:"):
        Filter2Model.from_dict(payload)
