"""Objective tests: definitions, registry parsing, declared optima."""

from __future__ import annotations

import numpy as np
import pytest

from edaem.errors import ConfigError, DomainError
from edaem.objectives import (
    Domain,
    evaluate,
    evaluate_batch,
    leadingones,
    onemax,
    parse_objective,
    rastrigin_max,
    rosenbrock_max,
    sphere_max,
    trap,
)


def test_onemax_counts_bits():
    assert evaluate(onemax(4), [1, 1, 0, 1]) == 3.0


def test_leadingones_prefix():
    assert evaluate(leadingones(4), [1, 1, 0, 1]) == 2.0
    assert evaluate(leadingones(4), [0, 1, 1, 1]) == 0.0
    assert evaluate(leadingones(4), [1, 1, 1, 1]) == 4.0


def test_sphere_max_at_origin():
    assert evaluate(sphere_max(3), [0.0, 0.0, 0.0]) == 0.0
    assert evaluate(sphere_max(3), [1.0, 2.0, 0.0]) == -5.0


def test_rosenbrock_max_at_ones():
    assert evaluate(rosenbrock_max(3), [1.0, 1.0, 1.0]) == 0.0
    assert evaluate(rosenbrock_max(2), [0.0, 0.0]) == -1.0


def test_rastrigin_max_at_origin():
    assert evaluate(rastrigin_max(4), [0.0] * 4) == pytest.approx(0.0, abs=1e-12)


def test_trap_block_values():
    t = trap(3, 1)
    assert evaluate(t, [1, 1, 1]) == 3.0  # full block
    assert evaluate(t, [0, 0, 0]) == 2.0  # deceptive slope
    assert evaluate(t, [1, 0, 0]) == 1.0
    assert evaluate(t, [1, 1, 0]) == 0.0


def test_trap_blocks_sum():
    t = trap(3, 2)
    assert evaluate(t, [1, 1, 1, 0, 0, 0]) == 5.0


@pytest.mark.parametrize(
    "text,name,dim",
    [
        ("onemax:32", "onemax:32", 32),
        ("leadingones:8", "leadingones:8", 8),
        ("trap:5x6", "trap:5x6", 30),
        ("sphere:10", "sphere_max:10", 10),
        ("rastrigin:10", "rastrigin_max:10", 10),
        ("rosenbrock:4", "rosenbrock_max:4", 4),
    ],
)
def test_parse_objective(text, name, dim):
    obj = parse_objective(text)
    assert obj.name == name
    assert obj.domain.dim == dim


@pytest.mark.parametrize("text", ["mystery:3", "onemax", "trap:5", "onemax:x"])
def test_parse_objective_rejects(text):
    with pytest.raises(ConfigError):
        parse_objective(text)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(onemax(3), [1, 2, 0])
    with pytest.raises(DomainError):
        evaluate(sphere_max(3), [1.0, float("inf"), 0.0])
    with pytest.raises(DomainError):
        evaluate(onemax(3), [1, 0])


@pytest.mark.parametrize("obj", [onemax(12), leadingones(12), trap(3, 4)])
def test_binary_objectives_agree_across_input_dtypes(obj):
    bits = np.random.default_rng(11).integers(0, 2, size=(64, 12))
    bits[0] = 1  # at least one row at the optimum
    ref = evaluate_batch(obj, bits.astype(np.float64))
    for dtype in (np.bool_, np.int64):
        got = evaluate_batch(obj, bits.astype(dtype))
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("bad", [np.array([[0, 2, 1]]), np.array([[0.5, 1.0, 0.0]])])
def test_binary_domain_rejects_non_binary_values(bad):
    with pytest.raises(DomainError):
        Domain("binary", 3).check(bad)
    with pytest.raises(DomainError):
        evaluate_batch(onemax(3), bad)


@pytest.mark.parametrize(
    "obj,sampler",
    [
        (onemax(6), lambda rng: rng.integers(0, 2, size=(500, 6))),
        (leadingones(6), lambda rng: rng.integers(0, 2, size=(500, 6))),
        (trap(3, 2), lambda rng: rng.integers(0, 2, size=(500, 6))),
        (sphere_max(4), lambda rng: rng.normal(size=(500, 4))),
        (rosenbrock_max(4), lambda rng: rng.normal(size=(500, 4))),
        (rastrigin_max(4), lambda rng: rng.normal(size=(500, 4))),
    ],
)
def test_random_probing_never_beats_declared_optimum(obj, sampler):
    rng = np.random.default_rng(47)
    argmax, best = obj.known_opt
    vals = evaluate_batch(obj, sampler(rng))
    assert np.all(vals <= best + 1e-12)
    assert evaluate(obj, argmax) == pytest.approx(best, abs=1e-12)


def test_negated_objectives_nonpositive():
    rng = np.random.default_rng(53)
    for obj in [sphere_max(3), rosenbrock_max(3), rastrigin_max(3)]:
        vals = evaluate_batch(obj, rng.normal(size=(200, 3)))
        assert np.all(vals <= 0.0)
