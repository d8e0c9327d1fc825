"""Planted-instance generators and their synthesis certificates."""

import tracemalloc

import numpy as np
import pytest

from greedyopt.algorithms import Chebyshev, StopReason, StopRule, run_greedy
from greedyopt.dictionaries import Atom, FiniteDictionary, synthesis_l1
from greedyopt.instances import (
    SynthesisCertificate,
    _dyadic_fractions,
    check_synthesis,
    gen_compressed_sensing,
    gen_low_rank,
    gen_lp_approx,
)
from greedyopt.objectives import lr_norm, make_least_squares

from oracles import nuclear_norm


def _coefficients(cert):
    return np.array([c for _, c in cert.terms])


# ---------------------------------------------------------------------------
# compressed-sensing dictionary


@pytest.mark.parametrize("seed", [3, 1001])
def test_cs_dictionary_bits_match_from_matrix(seed):
    # the in-place normalization gives the bits of from_matrix on a copy,
    # and of the out-of-place division the generator used to make
    dic, _, _ = gen_compressed_sensing(32, 96, 4, seed=seed)
    draw = np.random.default_rng(seed).standard_normal((32, 96))
    bits = dic.columns.tobytes()
    assert bits == FiniteDictionary.from_matrix(draw).columns.tobytes()
    assert bits == (draw / np.linalg.norm(draw, axis=0)).tobytes()


def test_cs_generation_holds_one_matrix():
    # the draw is normalized in place and adopted by the dictionary, so no
    # second k x n array (a copy or a k x n array of squares) is ever live
    tracemalloc.start()
    try:
        dic, _, _ = gen_compressed_sensing(128, 512, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * dic.columns.nbytes


def test_lp_generation_holds_one_matrix():
    # the lr column norms are computed a bounded block of columns at a
    # time, so no second k x n array is live while the draw is normalized
    tracemalloc.start()
    try:
        dic, _, _ = gen_lp_approx(256, 3.0, 1.5, s=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * dic.columns.nbytes


@pytest.mark.parametrize("r", [2.0, 3.0])
def test_lp_dictionary_bits_match_the_division(r):
    # the in-place division gives the bits of dividing the draw by its
    # columns' lr norms out of place
    dic, _, _ = gen_lp_approx(16, r, 1.5, seed=4)
    draw = np.random.default_rng(4).standard_normal((16, 64))
    norms = np.array([lr_norm(c, r) for c in draw.T])
    assert dic.columns.tobytes() == (draw / norms).tobytes()


# ---------------------------------------------------------------------------
# dyadic fractions


def test_dyadic_single_entry():
    rng = np.random.default_rng(0)
    assert list(_dyadic_fractions(1, rng)) == [1.0]


def test_dyadic_fractions_sum_exactly_to_one():
    rng = np.random.default_rng(3)
    for count in (2, 5, 17):
        fracs = _dyadic_fractions(count, rng)
        assert fracs.sum() == 1.0  # bit-exact by construction
        scaled = fracs * 2.0**30
        assert np.array_equal(scaled, np.round(scaled))
        assert np.all(fracs >= 2.0**-30)


def test_dyadic_fractions_respect_floor():
    rng = np.random.default_rng(4)
    fracs = _dyadic_fractions(8, rng, min_coef=0.05)
    assert fracs.min() >= 0.05 - 1e-8
    assert fracs.sum() == 1.0


def test_dyadic_fractions_equal_split_when_floor_binds():
    rng = np.random.default_rng(5)
    fracs = _dyadic_fractions(8, rng, min_coef=0.125)
    assert np.array_equal(fracs, np.full(8, 0.125))


def test_dyadic_fractions_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        _dyadic_fractions(0, rng)
    with pytest.raises(ValueError):
        _dyadic_fractions(4, rng, min_coef=-0.1)
    with pytest.raises(ValueError):
        _dyadic_fractions(4, rng, min_coef=0.3)  # 1.2 > unit budget
    with pytest.raises(ValueError, match="min_coef"):
        _dyadic_fractions(1, rng, min_coef=1.5)  # one fraction: the same budget


# ---------------------------------------------------------------------------
# compressed sensing


def test_cs_certificate_is_exact():
    dic, y, cert = gen_compressed_sensing(64, 256, 8, mass=1.0, seed=7)
    assert dic.ambient_dim == 64 and dic.size == 256
    assert cert.mass == 1.0  # dyadic quantization makes the sum exact
    scaled = np.abs(_coefficients(cert)) * 2.0**30
    assert np.array_equal(scaled, np.round(scaled))
    assert check_synthesis(cert.realize(dic), y) <= 1e-12
    assert make_least_squares(y).value(cert.realize(dic)) == 0.0  # the optimum
    assert len(cert.terms) == 8
    assert len({atom.index for atom, _ in cert.terms}) == 8  # distinct support


def test_cs_min_coef_floors_magnitudes():
    _, _, cert = gen_compressed_sensing(16, 64, 8, mass=1.0, seed=2, min_coef=0.05)
    assert np.abs(_coefficients(cert)).min() >= 0.05 - 1e-8
    _, _, equal = gen_compressed_sensing(16, 64, 8, mass=1.0, seed=2, min_coef=0.125)
    assert np.allclose(np.abs(_coefficients(equal)), 0.125, atol=0)


def test_cs_reproducible_and_seed_sensitive():
    _, y1, _ = gen_compressed_sensing(8, 16, 2, seed=11)
    _, y2, _ = gen_compressed_sensing(8, 16, 2, seed=11)
    _, y3, _ = gen_compressed_sensing(8, 16, 2, seed=12)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_cs_validation():
    with pytest.raises(ValueError):
        gen_compressed_sensing(8, 16, 17)
    with pytest.raises(ValueError):
        gen_compressed_sensing(8, 16, 0)
    with pytest.raises(ValueError):
        gen_compressed_sensing(0, 16, 2)
    with pytest.raises(ValueError):
        gen_compressed_sensing(8, 16, 2, mass=0.0)


def test_check_synthesis_catches_tampering():
    dic, y, cert = gen_compressed_sensing(8, 16, 3, seed=1)
    bad_terms = tuple(
        (atom, coef + (0.5 if i == 0 else 0.0))
        for i, (atom, coef) in enumerate(cert.terms)
    )
    with pytest.raises(ValueError):
        check_synthesis(SynthesisCertificate(bad_terms).realize(dic), y)


# ---------------------------------------------------------------------------
# low rank


def test_low_rank_planted_matrix():
    dic, target, cert = gen_low_rank(8, 3, mass=1.0, seed=2)
    assert target.shape == (8, 8)
    assert dic.ambient_dim == 64
    assert cert.mass == 1.0
    assert nuclear_norm(target) == pytest.approx(1.0, abs=1e-10)
    sigmas = np.sort(np.abs(_coefficients(cert)))[::-1]
    svals = np.linalg.svd(target, compute_uv=False)[:3]
    assert np.allclose(svals, sigmas, atol=1e-12)
    # planted factor columns are orthonormal within each side
    us = np.column_stack([atom.factors[0] for atom, _ in cert.terms])
    vs = np.column_stack([atom.factors[1] for atom, _ in cert.terms])
    assert np.allclose(us.T @ us, np.eye(3), atol=1e-12)
    assert np.allclose(vs.T @ vs, np.eye(3), atol=1e-12)
    assert check_synthesis(cert.realize(dic), target) <= 1e-12


def test_low_rank_validation():
    with pytest.raises(ValueError):
        gen_low_rank(4, 5)
    with pytest.raises(ValueError):
        gen_low_rank(4, 0)
    with pytest.raises(ValueError):
        gen_low_rank(4, 2, mass=-1.0)


# ---------------------------------------------------------------------------
# lp approximation


def test_lp_columns_are_unit_in_lr():
    dic, _, _ = gen_lp_approx(8, 4.0, 2.0, seed=3)
    assert dic.size == 32  # default 4n
    for j in range(dic.size):
        assert lr_norm(dic.columns[:, j], 4.0) == pytest.approx(1.0, abs=1e-12)


def test_lp_r2_objective_is_scaled_least_squares():
    dic, obj, cert = gen_lp_approx(6, 2.0, 2.0, seed=9, s=2)
    f = cert.realize(dic)
    ls = make_least_squares(f)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = f + 0.3 * rng.standard_normal(6)
        assert obj.value(x) == pytest.approx(2.0 * ls.value(x), rel=1e-12)


def test_lp_single_atom_is_solved_in_one_step():
    dic, obj, cert = gen_lp_approx(8, 4.0, 2.0, seed=3, s=1)
    assert len(cert.terms) == 1
    trace = run_greedy(obj, dic, 1.0, Chebyshev(), StopRule(max_m=10))
    assert trace.iterations == 1
    assert trace.records[0].energy <= 1e-12
    assert trace.stop_reason is StopReason.SUP_SCORE_TOL


def test_lp_validation():
    with pytest.raises(ValueError):
        gen_lp_approx(8, 1.0, 2.0)
    with pytest.raises(ValueError):
        gen_lp_approx(8, 4.0, 2.5)
    with pytest.raises(ValueError):
        gen_lp_approx(8, 4.0, 2.0, s=33)  # exceeds default dict_size 4n


def test_lp_certificate_verifies():
    dic, obj, cert = gen_lp_approx(10, 3.0, 1.5, seed=4, s=3, dict_size=50)
    assert dic.size == 50
    f = cert.realize(dic)
    assert check_synthesis(cert.realize(dic), f) <= 1e-12
    assert obj.value(f) == 0.0


# ---------------------------------------------------------------------------
# certificates as objects


def test_certificate_realize_and_coefficients():
    dic, y, cert = gen_compressed_sensing(8, 16, 3, seed=5)
    assert np.allclose(cert.realize(dic), y, atol=1e-15)
    # the terms' coefficients, a vector over the planted (positive) columns
    columns = [atom.index for atom, _ in cert.terms]
    assert all(atom.sign == 1 for atom, _ in cert.terms)
    assert np.allclose(dic.columns[:, columns] @ _coefficients(cert), y, atol=1e-15)


def test_certificate_manual_construction():
    cert = SynthesisCertificate(((Atom(0, 1), 0.25), (Atom(1, -1), -0.75)))
    assert cert.mass == 1.0


# (generator, seed, mass, float.hex of the mass the generator stored when the
# certificate kept it as a field: synthesis_l1 of its terms). On these draws
# the rounded products mass * fraction do not sum back to the requested mass.
_STORED_MASS = [
    ("cs", 1, 2.9, "0x1.7333333333332p+1"),
    ("low_rank", 1, 1.0 / 3.0, "0x1.5555555555554p-2"),
    ("lp", 3, 1.0 / 3.0, "0x1.5555555555554p-2"),
    ("lp", 4, 0.1, "0x1.9999999999999p-4"),
]


def _generate(kind, seed, mass):
    if kind == "cs":
        return gen_compressed_sensing(16, 64, 8, mass=mass, seed=seed)
    if kind == "low_rank":
        return gen_low_rank(8, 5, mass=mass, seed=seed)
    return gen_lp_approx(8, 3.0, 1.5, seed=seed, s=6, mass=mass)


@pytest.mark.parametrize("kind, seed, mass, stored", _STORED_MASS)
def test_certificate_mass_has_the_bits_of_synthesis_l1(kind, seed, mass, stored):
    # the mass is a property of the terms, with synthesis_l1's bits, which
    # are those every generator stored
    _, _, cert = _generate(kind, seed, mass)
    assert cert.mass != mass
    assert cert.mass.hex() == stored
    assert cert.mass.hex() == synthesis_l1(c for _, c in cert.terms).hex()
    assert SynthesisCertificate(cert.terms).mass.hex() == stored
