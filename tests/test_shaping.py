"""Shaping tests: documented examples, monotonicity, invariances, errors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from edaem.errors import ConfigError, DegenerateWeightsError, ShapingInputError
from edaem.shaping import ShapingSpec, log_shift, shape

# Few distinct values, so most generations have ties.
tied_values = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40)
# Long generations of a few values, zeros of both signs among them: a few
# large tie groups.
heavy_ties = st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=100, max_size=200)
any_values = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)), min_size=1, max_size=40
)
specs = st.one_of(
    st.just(ShapingSpec("identity")),
    st.just(ShapingSpec("rank")),
    st.floats(1e-3, 10.0).map(lambda b: ShapingSpec("exponential", beta=b)),
    st.floats(1e-3, 1.0).map(lambda r: ShapingSpec("quantile", rho=r)),
    st.floats(0.0, 0.999).map(lambda q: ShapingSpec("cdf_threshold", level=q)),
)
deterministic = settings(derandomize=True, deadline=None, database=None)


def test_quantile_top_half():
    spec = ShapingSpec("quantile", rho=0.5)
    np.testing.assert_array_equal(shape(spec, [3, 1, 2, 4]), [1, 0, 0, 1])


def test_identity_passthrough():
    spec = ShapingSpec("identity")
    np.testing.assert_array_equal(shape(spec, [0, 2, 5]), [0, 2, 5])


def test_identity_weights_are_a_read_only_view_of_the_values():
    f = np.array([0.0, 2.0, 5.0])
    w = shape(ShapingSpec("identity"), f)
    assert np.shares_memory(w, f)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert f.flags.writeable  # the caller's array stays writeable
    np.testing.assert_array_equal(f, [0.0, 2.0, 5.0])
    np.testing.assert_array_equal(shape(ShapingSpec("identity"), [0, 2, 5]), [0.0, 2.0, 5.0])


@pytest.mark.parametrize("text", ["rank", "quantile:0.5", "exp:1.0", "cdf:0.5"])
def test_other_shapings_return_a_fresh_array(text):
    f = np.array([0.0, 2.0, 5.0, 1.0])
    w = shape(ShapingSpec.parse(text), f)
    assert not np.shares_memory(w, f)
    assert w.flags.writeable


def test_exponential_max_shifted():
    spec = ShapingSpec("exponential", beta=1.0)
    np.testing.assert_allclose(shape(spec, [0.0, np.log(2.0)]), [0.5, 1.0])


def test_quantile_tie_break_stable_by_index():
    spec = ShapingSpec("quantile", rho=0.5)
    # two tied values at the cut: the earlier index wins
    np.testing.assert_array_equal(shape(spec, [2.0, 5.0, 2.0, 1.0]), [1, 1, 0, 0])


def test_rank_ties_share_weight():
    spec = ShapingSpec("rank")
    w = shape(spec, [1.0, 3.0, 1.0, 2.0])
    assert w[0] == w[2]
    assert w[1] == max(w)
    assert np.all(w > 0)


def test_cdf_threshold_keeps_all_at_threshold():
    spec = ShapingSpec("cdf_threshold", level=0.5)
    w = shape(spec, [1.0, 2.0, 2.0, 0.0])
    np.testing.assert_array_equal(w, [0, 1, 1, 0])


@pytest.mark.parametrize(
    "spec",
    [
        ShapingSpec("identity"),
        ShapingSpec("exponential", beta=0.7),
        ShapingSpec("quantile", rho=0.3),
        ShapingSpec("rank"),
        ShapingSpec("cdf_threshold", level=0.6),
    ],
)
def test_monotone_in_objective(spec):
    rng = np.random.default_rng(17)
    for _ in range(50):
        f = rng.normal(size=rng.integers(2, 30)) ** 2  # nonnegative, identity-safe
        w = shape(spec, f)
        assert np.all(w >= 0)
        assert np.any(w > 0)
        order = np.argsort(f)
        for a, b in zip(order[:-1], order[1:]):
            if f[b] > f[a]:
                assert w[b] >= w[a]


@pytest.mark.parametrize("kind", ["quantile", "rank"])
def test_selection_invariant_under_positive_affine(kind):
    spec = (
        ShapingSpec("quantile", rho=0.4) if kind == "quantile" else ShapingSpec("rank")
    )
    rng = np.random.default_rng(23)
    for _ in range(25):
        f = rng.normal(size=12)
        w = shape(spec, f)
        w2 = shape(spec, 3.5 * f + 11.0)
        np.testing.assert_allclose(w, w2, atol=0)


def test_exponential_max_shift_invariance():
    spec = ShapingSpec("exponential", beta=2.0)
    rng = np.random.default_rng(29)
    f = rng.uniform(-3, 3, size=20)
    w = shape(spec, f)
    unshifted = np.exp(2.0 * f)
    np.testing.assert_allclose(w / w.sum(), unshifted / unshifted.sum(), rtol=1e-12)
    # the divided-out constant restores the unshifted transform
    np.testing.assert_allclose(w * np.exp(log_shift(spec, f)), unshifted, rtol=1e-12)


def test_identity_rejects_negative():
    with pytest.raises(ShapingInputError):
        shape(ShapingSpec("identity"), [1.0, -0.5])


@pytest.mark.parametrize("text", ["rank", "identity", "quantile:0.5", "exp:1.0", "cdf:0.5"])
def test_empty_input_rejected(text):
    with pytest.raises(ShapingInputError, match="at least one"):
        shape(ShapingSpec.parse(text), [])


def test_nan_input_rejected():
    with pytest.raises(ShapingInputError):
        shape(ShapingSpec("rank"), [1.0, float("nan")])


def test_identity_all_zero_degenerate():
    with pytest.raises(DegenerateWeightsError):
        shape(ShapingSpec("identity"), [0.0, 0.0, 0.0])


def test_quantile_never_empty():
    # ceil(rho * N) >= 1 for any rho in (0, 1]
    w = shape(ShapingSpec("quantile", rho=0.01), [5.0, 1.0])
    assert w.sum() == 1.0


def test_quantile_keeps_the_ceiling_of_the_decimal_rho_n():
    # In float arithmetic 0.07 * 100 is 7.000000000000001, whose ceiling
    # is 8; (0.28, 25), (0.14, 50) and (0.56, 75) round up the same way.
    for k in range(1, 101):
        for n in (1, 3, 25, 50, 75, 100, 333, 1000):
            kept = shape(ShapingSpec("quantile", rho=k / 100), np.zeros(n)).sum()
            assert kept == -(-k * n // 100), (k, n)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("identity", ShapingSpec("identity")),
        ("rank", ShapingSpec("rank")),
        ("quantile:0.25", ShapingSpec("quantile", rho=0.25)),
        ("exp:2.0", ShapingSpec("exponential", beta=2.0)),
        ("cdf:0.9", ShapingSpec("cdf_threshold", level=0.9)),
        ("cdf_threshold:0.9", ShapingSpec("cdf_threshold", level=0.9)),
    ],
)
def test_parse(text, expected):
    assert ShapingSpec.parse(text) == expected


@pytest.mark.parametrize(
    "text",
    ["nope", "quantile:0", "quantile:1.5", "exp:-1", "exp:x", "exp:inf", "exp:nan",
     "quantile:nan", "cdf:nan", "cdf:-inf", "rank:0.5", "identity:3", "rank:"],
)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        ShapingSpec.parse(text)


# Each row breaks one parameter; the error must name it.  A parameter is a
# finite real number, and a bool is not one.
@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"kind": "exponential", "beta": float("inf")}, "beta"),
        ({"kind": "exponential", "beta": True}, "beta"),
        ({"kind": "exponential", "beta": "2.0"}, "beta"),
        ({"kind": "exponential"}, "beta"),
        ({"kind": "quantile", "rho": True}, "rho"),
        ({"kind": "quantile", "rho": "0.5"}, "rho"),
        ({"kind": "cdf_threshold", "level": False}, "level"),
        ({"kind": "cdf_threshold", "level": float("nan")}, "level"),
        ({"kind": "rank", "beta": 1.0}, "beta"),
        ({"kind": "quantile", "rho": 0.5, "level": 0.5}, "level"),
        ({"kind": ["rank"]}, "kind"),
    ],
)
def test_spec_is_the_one_shaping_schema(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        ShapingSpec(**kwargs)


def test_spec_str_roundtrip():
    for text in ["identity", "rank", "quantile:0.25", "exp:2.0", "cdf:0.9"]:
        assert ShapingSpec.parse(str(ShapingSpec.parse(text))) == ShapingSpec.parse(text)


@deterministic
@given(st.one_of(tied_values, heavy_ties))
def test_rank_weights_are_average_ranks_over_n(values):
    f = np.array(values)
    n = f.shape[0]
    w = shape(ShapingSpec("rank"), f)
    np.testing.assert_array_equal(w, rankdata(f, method="average") / n)
    # the same average rank, counted: values below plus the mean position
    # among the ties
    below = (f[None, :] < f[:, None]).sum(axis=1)
    tied = (f[None, :] == f[:, None]).sum(axis=1)
    np.testing.assert_array_equal(w, (below + (tied + 1) / 2) / n)


@deterministic
@given(specs, any_values)
def test_every_kind_is_monotone_in_f(spec, values):
    f = np.array(values)
    if spec.kind == "identity":  # needs f >= 0 and some positive mass
        f = f - f.min() + 1.0
    w = shape(spec, f)
    assert np.all(w >= 0.0)
    lower = f[:, None] < f[None, :]  # lower[i, j]: f_i < f_j
    assert np.all((w[:, None] <= w[None, :])[lower])


@deterministic
@given(specs, any_values, st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_non_finite_values_rejected(spec, values, bad, data):
    f = list(values)
    f.insert(data.draw(st.integers(0, len(f))), bad)
    with pytest.raises(ShapingInputError):
        shape(spec, f)
