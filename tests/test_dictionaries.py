"""Dictionaries, atom selection, and the certified sup machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from greedyopt import dictionaries
from greedyopt.dictionaries import (
    PROOF_RTOL,
    PROOF_SIDE,
    SHIFT_MARGINS,
    SKETCH_WIDTH,
    Atom,
    FiniteDictionary,
    LR_NORM_BLOCK,
    RankOneDictionary,
    WEAKNESS_SLACK,
    UnsupportedDictionaryError,
    WeaknessCertificationError,
    column_norms,
    lr_column_norms,
    select_e_greedy_fixed,
    select_gradient_greedy,
    synthesis_l1,
    unit_columns,
    verified_cholesky,
)
from greedyopt.algorithms import (
    BestStep,
    GreedyRunError,
    StopReason,
    StopRule,
    run_greedy,
)
from greedyopt.objectives import lr_norm, make_least_squares

from oracles import (
    brute_force_sup,
    known_spectrum,
    lr_unit_check_scaled,
    rank_one_proof_sup_wrapped,
    rank_one_realize_wrapped,
    rank_one_sup_wrapped,
    sigma_max_eigvalsh,
    top_singular_eigh,
)


def canonical(n=2):
    return FiniteDictionary(np.eye(n))


# ---------------------------------------------------------------------------
# atoms


def test_atom_sign_validation():
    with pytest.raises(ValueError):
        Atom(0, 2)
    with pytest.raises(ValueError):
        Atom(0, 0)


def test_atom_equality_with_factors():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    a = Atom(-1, 1, (u, v))
    b = Atom(-1, 1, (u.copy(), v.copy()))
    c = Atom(-1, 1, (u, u))
    assert a == b
    assert a != c
    assert hash(a) == hash(b)
    assert a != Atom(-1, 1)


# ---------------------------------------------------------------------------
# finite dictionaries


def test_realize_canonical():
    dic = canonical()
    assert np.array_equal(dic.realize(Atom(0, 1)), [1.0, 0.0])
    assert np.array_equal(dic.realize(Atom(0, -1)), [-1.0, 0.0])
    with pytest.raises(IndexError):
        dic.realize(Atom(5, 1))


def test_from_matrix_normalizes():
    dic = FiniteDictionary.from_matrix(np.array([[3.0, 0.0], [4.0, 2.0]]))
    assert np.allclose(np.linalg.norm(dic.columns, axis=0), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        FiniteDictionary.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_constructor_rejects_unnormalized():
    with pytest.raises(ValueError):
        FiniteDictionary(np.array([[2.0], [0.0]]))


def test_custom_norm_columns():
    # columns unit in l4 (not in l2) are accepted with r=4
    col = np.array([1.0, 1.0]) / 2.0**0.25
    dic = FiniteDictionary(col[:, None], r=4.0)
    assert dic.size == 1
    with pytest.raises(ValueError):
        FiniteDictionary(col[:, None])


def test_unit_norm_check_names_first_bad_column():
    # the l2 and the l_r paths reject with the same message, naming the
    # first bad column
    cols = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^column 1 has norm 2.0, expected 1$"):
        FiniteDictionary(cols)
    with pytest.raises(ValueError, match=r"^column 1 has norm 2.0, expected 1$"):
        FiniteDictionary(cols, r=4.0)
    # the 1e-12 tolerance is the same on both paths
    near = np.array([[1.0 + 5e-13, 1.0 + 2e-12]])
    for r in (2.0, 4.0):
        with pytest.raises(ValueError, match=r"^column 1 has norm"):
            FiniteDictionary(near, r=r)
        assert FiniteDictionary(near[:, :1], r=r).size == 1


def _unit_check_cases(rows, r):
    """Dictionaries unit in l_r, and ones the check must reject, with the
    same 40 columns: scaled far out of range, a zero column, either side of
    the 1e-12 edge, and Fortran-ordered and strided inputs."""
    raw = np.random.default_rng(rows).standard_normal((rows, 40))
    unit = unit_columns(raw, lr_column_norms(raw, r))
    yield "unit", unit.copy()
    yield "scaled_1e100", 1e100 * unit
    yield "scaled_1e-100", 1e-100 * unit
    zero = unit.copy()
    zero[:, 7] = 0.0
    yield "zero_column", zero
    for name, factor in (("edge_in", 1.0 + 5e-13), ("edge_out", 1.0 + 2e-12)):
        edge = unit.copy()
        edge[:, 21] *= factor
        yield name, edge
    yield "fortran", np.asfortranarray(unit)
    wide = np.zeros((rows, 80))
    wide[:, ::2] = unit
    yield "strided", wide[:, ::2]


def _check_message(columns, r):
    try:
        FiniteDictionary(columns, r=r)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("rows", [1, 3, 64, 130])
@pytest.mark.parametrize("r", [1.2, 1.5, 2.5, 3.0, 4.0, 6.0])
def test_lr_unit_check_agrees_with_the_scaled_norms(r, rows):
    # the one-pass row sums accept and reject the columns that lr_norm's
    # bits do, and name the same column and norm; overflow and underflow
    # of the unscaled sums stay silent
    unit = next(_unit_check_cases(rows, r))[1]
    # within the docstring's (k / r + 3) u of the true norm, as lr_norm is
    bound = 2.0 * (rows / r + 3.0) * 2.0**-53
    deviation = dictionaries._lr_check_norms(unit, r) - lr_column_norms(unit, r)
    assert np.abs(deviation).max() <= bound
    verdicts = {}
    for name, columns in _unit_check_cases(rows, r):
        expected = lr_unit_check_scaled(columns, r)
        assert _check_message(columns, r) == expected, name
        verdicts[name] = expected is None
    assert verdicts == {
        "unit": True, "scaled_1e100": False, "scaled_1e-100": False,
        "zero_column": False, "edge_in": True, "edge_out": False,
        "fortran": True, "strided": True,
    }


@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit_check_rejects_non_finite_columns(r, bad):
    # a NaN norm fails |norm - 1| <= 1e-12, and an infinite entry gives an
    # infinite norm, with no inf / inf on the way
    cols = np.array([[1.0, 0.0, bad], [0.0, 1.0, 0.0]])
    norm = "nan" if math.isnan(bad) else "inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^column 2 has norm {norm}, expected 1$"):
            FiniteDictionary(cols, r=r)
        with pytest.raises(ValueError, match=rf"^column 0 has norm {norm}, expected 1$"):
            FiniteDictionary(np.array([[bad, 1.0], [0.0, 0.0]]), r=r)


@pytest.mark.parametrize("r", [1.0, math.inf, math.nan])
def test_unit_check_needs_r_in_the_open_range(r):
    # at r = inf the unscaled sums would read every column with entries
    # below 1 as unit: (1/2, 1/2) has l_inf norm 1/2
    with pytest.raises(ValueError, match=r"^r must be in \(1, inf\), got "):
        FiniteDictionary(np.array([[0.5], [0.5]]), r=r)


def test_lr_unit_check_allocates_one_block_of_rows():
    # on an adopted array the l_r check holds one block of at most
    # LR_NORM_BLOCK * k entries and one row of n sums, plus 2 KB for the
    # Python objects (array headers, views, the errstate context)
    k, n = 256, 1024
    raw = np.random.default_rng(5).standard_normal((k, n))
    cols = unit_columns(raw, lr_column_norms(raw, 3.0))
    tracemalloc.start()
    try:
        dic = FiniteDictionary(cols, r=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dic.columns is cols
    assert peak <= 8 * (LR_NORM_BLOCK * k + n) + 2048


def _lr_cases():
    rng = np.random.default_rng(11)
    for rows in (3, 64, 130):
        for scale in (1.0, 1e100, 1e-100):
            a = scale * rng.standard_normal((rows, 40))
            a[:, 7] = 0.0  # a zero column
            yield f"{rows}x40_{scale:g}", a
    a = rng.standard_normal((64, 40))
    yield "one_column", a[:, :1].copy()
    yield "fortran", np.asfortranarray(a)
    yield "strided_view", a[::2, 1::3]
    a = rng.standard_normal((64, 40))
    a[3, 5], a[10, 20] = np.inf, -np.inf
    a[0, 30], a[1, 30] = np.inf, 1e200  # the finite entry's power would overflow
    yield "infinite_columns", a


@pytest.mark.parametrize("r", [1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("a", [a for _, a in _lr_cases()], ids=[i for i, _ in _lr_cases()])
def test_lr_column_norms_are_lr_norm_bits(a, r):
    # the blocked routine gives lr_norm's bits on every column, across
    # blocks, scales, layouts, a zero column and infinite entries
    expected = np.array([lr_norm(c, r) for c in a.T])
    assert lr_column_norms(a, r).tobytes() == expected.tobytes()


def test_columns_immutable():
    dic = canonical()
    with pytest.raises(ValueError):
        dic.columns[0, 0] = 5.0


@pytest.mark.parametrize("shape", [(512, 2048), (256, 1024), (16, 32)])
def test_unit_columns_bits_match_linalg_norm(shape):
    # the column norms build no array of squares and still give the bits of
    # np.linalg.norm, so unit_columns divides exactly as before
    raw = np.random.default_rng(7).standard_normal(shape)
    norms = np.linalg.norm(raw, axis=0)
    assert column_norms(raw).tobytes() == norms.tobytes()
    divided = unit_columns(raw.copy(), column_norms(raw))
    assert divided.tobytes() == (raw / norms).tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.asfortranarray(np.random.default_rng(0).standard_normal((64, 256))),
        np.random.default_rng(3).standard_normal((3, 1)),
    ],
    ids=["fortran", "one_column"],
)
def test_column_norms_keep_linalg_bits_on_other_layouts(a):
    # on these layouts numpy sums a column in another order than row by row
    assert column_norms(a).tobytes() == np.linalg.norm(a, axis=0).tobytes()


def test_owned_array_is_adopted_and_frozen():
    cols = np.eye(3)
    dic = FiniteDictionary(cols)
    assert np.shares_memory(dic.columns, cols)
    with pytest.raises(ValueError):
        cols[0, 0] = 5.0
    assert dic.columns[0, 0] == 1.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.eye(4)[:, :3],
        lambda: np.eye(3)[:],
        lambda: np.asfortranarray(np.eye(3)),
        lambda: np.eye(3, dtype=np.float32),
        lambda: np.eye(3).tolist(),
    ],
    ids=["strided_view", "c_ordered_view", "fortran", "float32", "list"],
)
def test_other_inputs_are_copied(make):
    cols = make()
    dic = FiniteDictionary(cols)
    assert dic.columns.dtype == np.float64 and dic.columns.flags.c_contiguous
    assert not dic.columns.flags.writeable
    if isinstance(cols, np.ndarray):
        assert not np.shares_memory(dic.columns, cols)
        assert cols.flags.writeable
        cols[0, 0] = 5.0
    assert dic.columns[0, 0] == 1.0


def test_rejected_array_stays_writable():
    cols = np.array([[2.0], [0.0]])
    with pytest.raises(ValueError):
        FiniteDictionary(cols)
    cols[0, 0] = 1.0
    assert FiniteDictionary(cols).size == 1


def test_certified_sup_examples():
    dic = canonical()
    value, atom, upper = dic.certified_sup(np.array([3.0, -4.0]))
    assert (value, atom, upper) == (4.0, Atom(1, -1), 4.0)
    value, atom, _ = dic.certified_sup(np.zeros(2))
    assert (value, atom) == (0.0, Atom(0, 1))


def test_certified_sup_tie_breaks_low_index():
    value, atom, _ = canonical().certified_sup(np.array([1.0, 1.0]))
    assert (value, atom) == (1.0, Atom(0, 1))


@given(
    w=arrays(np.float64, (4,), elements=st.floats(-10, 10, allow_nan=False)),
    seed=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_certified_sup_matches_brute_force(w, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((4, 7))
    dic = FiniteDictionary.from_matrix(cols)
    value, atom, upper = dic.certified_sup(w)
    assert upper == value
    b_value, b_index, b_sign = brute_force_sup(dic.columns, w)
    assert value == b_value
    assert (atom.index, atom.sign) == (b_index, b_sign)


def test_certified_sup_repeat_returns_last_answer():
    # a query bitwise equal to the last one (even from another array) gets
    # the same answer object back; any other query replaces the entry
    rng = np.random.default_rng(5)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((5, 9)))
    w = rng.standard_normal(5)
    first = dic.certified_sup(w)
    assert dic.certified_sup(w.copy()) is first
    other = dic.certified_sup(-w)
    assert other is not first
    again = dic.certified_sup(w)
    assert again is not first and again == first


def test_certified_sup_memo_is_keyed_by_value():
    # mutating the queried array in place must not return the stale answer
    dic = canonical(3)
    w = np.array([3.0, -4.0, 1.0])
    assert dic.certified_sup(w) == (4.0, Atom(1, -1), 4.0)
    w[2] = 9.0
    assert dic.certified_sup(w) == (9.0, Atom(2, 1), 9.0)
    w[:] = 0.0
    assert dic.certified_sup(w) == (0.0, Atom(0, 1), 0.0)


def test_certified_sup_one_ulp_recomputes():
    # a tie breaks to the lowest index; one ulp more on the second entry
    # moves the answer, so the nudged query cannot be served from the memo
    dic = canonical()
    w = np.array([1.0, 1.0])
    first = dic.certified_sup(w)
    assert first == (1.0, Atom(0, 1), 1.0)
    nudged = w.copy()
    nudged[1] = np.nextafter(1.0, 2.0)
    value, atom, upper = dic.certified_sup(nudged)
    assert (value, atom, upper) == (nudged[1], Atom(1, 1), nudged[1])
    assert dic.certified_sup(w) is not first


def test_sup_symmetry():
    rng = np.random.default_rng(7)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((5, 9)))
    w = rng.standard_normal(5)
    v_pos, a_pos, _ = dic.certified_sup(w)
    v_neg, a_neg, _ = dic.certified_sup(-w)
    assert v_pos == v_neg
    assert (a_neg.index, a_neg.sign) == (a_pos.index, -a_pos.sign)


# ---------------------------------------------------------------------------
# rank-one top singular pair
#
# certified_sup proves its upper bound by a verified Cholesky factorization
# of a shifted (W / max|W|)^T (W / max|W|) at sides up to PROOF_SIDE, and
# takes s_1 from a values-only SVD above; v comes from two inverse-iteration
# solves. Every check compares against an oracle that does not share the
# path: a spectrum known by construction, the eigenproblem of W^T W, or
# np.linalg.svd. (The test_power_* names predate both.)


def _rank_one_sup(w):
    w = np.asarray(w, dtype=float)
    value, atom, upper = RankOneDictionary(w.shape[0]).certified_sup(w.ravel())
    u, v = atom.factors
    return u, v, value, upper


def test_power_diag_matrix():
    u, v, sigma, upper = _rank_one_sup(np.diag([3.0, 1.0]))
    assert sigma == pytest.approx(3.0, rel=1e-15)
    assert 3.0 <= upper <= 3.0 * (1.0 + 1e-12)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-15)
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-15)


def test_power_two_block_matrix():
    w = np.zeros((3, 3))
    w[0, 1] = 5.0
    w[2, 2] = 1.0
    u, v, sigma, upper = _rank_one_sup(w)
    assert sigma == pytest.approx(5.0, rel=1e-15)
    assert 5.0 <= upper <= 5.0 * (1.0 + 1e-12)
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-15)
    assert abs(v[1]) == pytest.approx(1.0, abs=1e-15)


def test_power_zero_matrix():
    u, v, sigma, upper = _rank_one_sup(np.zeros((3, 3)))
    assert (sigma, upper) == (0.0, 0.0)
    assert np.linalg.norm(u) == 1.0 and np.linalg.norm(v) == 1.0


def test_power_rayleigh_is_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(30):
        w = rng.standard_normal((6, 6))
        sigma_true = sigma_max_eigvalsh(w)
        u, v, sigma, upper = _rank_one_sup(w)
        assert sigma <= sigma_true + 1e-12
        assert sigma == pytest.approx(sigma_true, rel=1e-12)
        assert upper >= sigma_true
        # returned triple is self-consistent: u^T W v == sigma
        assert float(u @ (w @ v)) == pytest.approx(sigma, rel=1e-12)


def test_rank_one_sup_known_spectrum():
    # distinct singular values: the pair is the constructed one, to 1e-8
    for side, seed in ((5, 1), (64, 2)):
        s = np.linspace(2.0, 0.1, side)
        w, u_ref, v_ref = known_spectrum(s, seed)
        u, v, sigma, upper = _rank_one_sup(w)
        assert sigma == pytest.approx(2.0, rel=1e-12)
        assert upper >= 2.0
        assert 1.0 - abs(float(u @ u_ref[:, 0])) <= 1e-8
        assert 1.0 - abs(float(v @ v_ref[:, 0])) <= 1e-8
        assert float(u @ (w @ v)) == pytest.approx(sigma, rel=1e-12)
    # a flat spectrum at side 128, below PROOF_SIDE: every singular pair is
    # a top one, and the proof, at its loosest here, certifies at t = 1
    w = known_spectrum(np.full(128, 2.0), 3)[0]
    u, v, sigma, upper = _rank_one_sup(w)
    assert sigma == pytest.approx(2.0, rel=1e-12)
    assert upper >= 2.0
    assert upper >= sigma_max_eigvalsh(w)
    assert float(u @ (w @ v)) == pytest.approx(sigma, rel=1e-12)
    cert = select_gradient_greedy(RankOneDictionary(128), w.ravel(), 1.0)
    assert cert.ratio >= 1.0 - 1e-12


def _spectra(side, seed):
    rng = np.random.default_rng(seed)
    top = max(side // 4, 2)
    clustered = 1.0 - 1e-6 * np.arange(side)
    clustered[top:] = np.linspace(0.5, 0.01, side - top)
    rank_one = np.zeros(side)
    rank_one[0] = 3.0
    yield "random", rng.standard_normal((side, side)), None
    yield "clustered", known_spectrum(clustered, seed)[0], 1.0
    yield "rank-1", known_spectrum(rank_one, seed)[0], 3.0
    yield "zero", np.zeros((side, side)), 0.0


@pytest.mark.parametrize("side", [3, 16, 64])
def test_rank_one_upper_bounds_sigma_max(side):
    for name, w, s_max in _spectra(side, seed=side):
        _, _, value, upper = _rank_one_sup(w)
        assert upper >= sigma_max_eigvalsh(w), name
        if s_max is not None:
            assert upper >= s_max, name
        assert value <= upper, name


def test_rank_one_clustered_spectrum_certifies_at_t_one():
    # top gap 1e-6 at side 256: the selection certifies against a true
    # upper bound with ratio 1 - 1e-12 at t = 1
    side = 256
    s = 1.0 - 1e-6 * np.arange(side)
    s[8:] = np.linspace(0.5, 0.01, side - 8)
    w, _, _ = known_spectrum(s, 5)
    cert = select_gradient_greedy(RankOneDictionary(side), w.ravel(), 1.0)
    assert cert.ratio >= 1.0 - 1e-12
    assert cert.reference >= 1.0
    assert cert.reference >= sigma_max_eigvalsh(w)


@pytest.mark.parametrize("side", [8, 64, 256])
def test_rank_one_large_scale_certifies_at_t_one(side):
    # the SVD's margin grows with sigma_max; at sigma_max = 1e6 the
    # selection still certifies at t = 1 with ratio 1 - 1e-12
    s = 1e6 * (1.0 - 1e-6 * np.arange(side))
    w, _, _ = known_spectrum(s, 6)
    cert = select_gradient_greedy(RankOneDictionary(side), w.ravel(), 1.0)
    assert cert.ratio >= 1.0 - 1e-12
    assert cert.reference >= sigma_max_eigvalsh(w)


def test_rank_one_atom_owns_its_factors():
    # an atom kept in a trace must not hold a view of the query or share
    # one factor's memory with the other
    w = np.random.default_rng(3).standard_normal((8, 8))
    for matrix in (w, np.zeros((8, 8))):
        query = matrix.ravel()
        _, atom, _ = RankOneDictionary(8).certified_sup(query)
        u, v = atom.factors
        assert not np.shares_memory(u, query)
        assert not np.shares_memory(v, query)
        assert not np.shares_memory(u, v)


def _row_orthogonal_to_v1():
    # columns of norm 3 and 2.5: v_1 = e_0, and the largest row, (0, 2.5, 0),
    # is orthogonal to it, so a start taken from that row would miss v_1
    r = 3.0 / math.sqrt(2.0)
    return np.array([[r, 0.0, 0.0], [r, 0.0, 0.0], [0.0, 2.5, 0.0]]), 3.0


def _structured(seed):
    yield "row orthogonal to v_1", *_row_orthogonal_to_v1()
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((16, 16)))
    yield "repeated top (2 Q)", 2.0 * q, 2.0
    yield "identity", np.eye(16), 1.0
    rank_one = np.zeros(16)
    rank_one[0] = 3.0
    yield "rank one", known_spectrum(rank_one, seed)[0], 3.0
    for stencil in ((1.0, -1.0), (1.0, -2.0, 1.0), (2.0, 0.0, 0.0, -1.0)):
        # v_1 orthogonal to every affine ramp (the last also to sqrt(1..4)),
        # beside a lower diagonal block
        v1 = np.zeros(8)
        v1[: len(stencil)] = stencil
        w = 3.0 * np.outer(np.eye(8)[0], v1 / np.linalg.norm(v1))
        w[len(stencil) :, len(stencil) :] = 0.5 * np.eye(8 - len(stencil))
        yield f"stencil {stencil}", w, 3.0
    s = np.linspace(1.0, 0.1, 16)
    for scale in (1e-300, 1e300):
        yield f"sigma_max {scale:g}", known_spectrum(scale * s, seed)[0], scale


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_one_structured_matrices_certify_at_t_one(seed):
    for name, w, s_max in _structured(seed):
        side = w.shape[0]
        cert = select_gradient_greedy(RankOneDictionary(side), w.ravel(), 1.0)
        assert cert.ratio >= 1.0 - 1e-12, name
        assert cert.reference >= s_max, name
        if s_max < 1e150:  # W^T W would overflow above
            assert cert.reference >= sigma_max_eigvalsh(w), name


def _bits(*values):
    return [np.asarray(x, dtype=float).tobytes() for x in values]


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_one_sup_and_realize_are_their_wrapped_expressions_bit_for_bit(seed):
    # value, u, v and upper, and the atom's vector for both signs: the bits
    # of the same arithmetic through numpy's wrappers and np.outer, on the
    # structured and the known-spectrum matrices; the proof path's twin at
    # sides up to PROOF_SIDE, the SVD path's above
    cases = [(name, w) for name, w, _ in _structured(seed)]
    cases += [(name, w) for name, w, _ in _spectra(16, seed) if name != "zero"]
    for side, top in ((5, 2.0), (64, 2.0), (64, 1e6), (PROOF_SIDE + 1, 2.0)):
        s = np.linspace(top, 0.1, side)
        cases.append((f"known spectrum {side} {top:g}", known_spectrum(s, seed)[0]))
    for side, rank in ((32, 1), (64, 8), (PROOF_SIDE, SKETCH_WIDTH)):
        cases.append((f"rank {rank} at {side}", _low_rank(side, rank, seed)))
    for name, w in cases:
        side = w.shape[0]
        dic = RankOneDictionary(side)
        value, atom, upper = dic.certified_sup(w.ravel())
        u, v = atom.factors
        if side <= PROOF_SIDE:
            expected = rank_one_proof_sup_wrapped(w.ravel(), side, SHIFT_MARGINS)
        else:
            expected = rank_one_sup_wrapped(w.ravel(), side, dictionaries.SVD_ERROR_FACTOR)
        assert _bits(value, u, v, upper) == _bits(*expected), name
        for sign in (1, -1):
            got = dic.realize(Atom(-1, sign, atom.factors))
            assert _bits(got) == _bits(rank_one_realize_wrapped(sign, u, v)), name


def _low_rank(side, rank, seed):
    """A side x side W = X Y^T of the given rank, with Gaussian factors."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((side, rank)) @ rng.standard_normal((rank, side))


def _recorded_dsyevr(monkeypatch):
    """Record the shape of each matrix dictionaries' dsyevr is called on;
    returns the list of shapes."""
    shapes = []
    real = dictionaries.dsyevr

    def dsyevr(a, **kwargs):
        shapes.append(a.shape)
        return real(a, **kwargs)

    monkeypatch.setattr(dictionaries, "dsyevr", dsyevr)
    return shapes


def _failing_dpotrf(monkeypatch, failures):
    """Make dictionaries' dpotrf report a failed pivot on its first
    `failures` calls; returns the list of calls made."""
    calls = []
    real = dictionaries.dpotrf

    def dpotrf(a, **kwargs):
        calls.append(a.shape)
        if len(calls) <= failures:
            return a, 1
        return real(a, **kwargs)

    monkeypatch.setattr(dictionaries, "dpotrf", dpotrf)
    return calls


@pytest.mark.parametrize("side", [1, 4, 16, 64])
def test_rank_one_failed_proof_falls_back_to_the_svd_path_bit_for_bit(monkeypatch, side):
    # every shift margin's factorization fails: the answer is the SVD
    # path's, with its bits
    w = np.random.default_rng(side).standard_normal(side * side)
    calls = _failing_dpotrf(monkeypatch, len(SHIFT_MARGINS))
    value, atom, upper = RankOneDictionary(side).certified_sup(w)
    assert len(calls) == len(SHIFT_MARGINS)
    expected = rank_one_sup_wrapped(w, side, dictionaries.SVD_ERROR_FACTOR)
    assert _bits(value, *atom.factors, upper) == _bits(*expected)


def test_rank_one_failed_estimate_falls_back_to_the_svd_path_bit_for_bit(monkeypatch):
    def dsyevr(a, **kwargs):  # an eigensolver that did not converge
        return np.zeros(1), np.zeros((0, 0)), 0, np.zeros(0, dtype=np.int32), 1

    monkeypatch.setattr(dictionaries, "dsyevr", dsyevr)
    calls = _failing_dpotrf(monkeypatch, 0)
    w = np.random.default_rng(7).standard_normal(64)
    value, atom, upper = RankOneDictionary(8).certified_sup(w)
    assert calls == []
    expected = rank_one_sup_wrapped(w, 8, dictionaries.SVD_ERROR_FACTOR)
    assert _bits(value, *atom.factors, upper) == _bits(*expected)


@pytest.mark.parametrize("failures", range(1, len(SHIFT_MARGINS)))
def test_rank_one_retry_takes_the_next_shift_margin(monkeypatch, failures):
    # a failed try forms C again and factors at the next margin: the bits of
    # the proof path started at that margin
    w = known_spectrum(np.linspace(1.0, 0.1, 16), 4)[0].ravel()
    calls = _failing_dpotrf(monkeypatch, failures)
    value, atom, upper = RankOneDictionary(16).certified_sup(w)
    assert len(calls) == failures + 1
    expected = rank_one_proof_sup_wrapped(w, 16, SHIFT_MARGINS[failures:])
    assert _bits(value, *atom.factors, upper) == _bits(*expected)


@pytest.mark.parametrize("side", [32, 64, 128])
@pytest.mark.parametrize("rank", [1, 8, SKETCH_WIDTH])
def test_rank_one_sketch_certifies_low_rank_w_without_the_full_eigensolver(
    monkeypatch, side, rank
):
    # SKETCH_WIDTH columns span a rank <= SKETCH_WIDTH W: its Ritz value
    # places the first Cholesky try, which proves the bound, and dsyevr
    # runs only on the sketch's SKETCH_WIDTH-square B B^T
    w = _low_rank(side, rank, seed=side + rank)
    shapes = _recorded_dsyevr(monkeypatch)
    calls = _failing_dpotrf(monkeypatch, 0)
    value, atom, upper = RankOneDictionary(side).certified_sup(w.ravel())
    assert calls == [(side, side)]
    assert shapes == [(SKETCH_WIDTH, SKETCH_WIDTH)]
    assert value <= upper
    assert upper >= sigma_max_eigvalsh(w)
    cert = select_gradient_greedy(RankOneDictionary(side), w.ravel(), 1.0)
    assert 1.0 - cert.ratio <= 1e-12
    expected = rank_one_proof_sup_wrapped(w.ravel(), side, SHIFT_MARGINS)
    assert _bits(value, *atom.factors, upper) == _bits(*expected)


@pytest.mark.parametrize("side", [SKETCH_WIDTH + 1, 64, PROOF_SIDE])
def test_rank_one_full_rank_w_is_screened_out_of_the_sketch(monkeypatch, side):
    # the picked columns miss most of a Gaussian W's energy: no estimate,
    # no try, and the answer has the bits of the path without the sketch
    w = np.random.default_rng(side).standard_normal((side, side))
    a = w / np.abs(w).max()
    assert dictionaries._sketch_estimate(a) is None
    shapes = _recorded_dsyevr(monkeypatch)
    calls = _failing_dpotrf(monkeypatch, 0)
    value, atom, upper = RankOneDictionary(side).certified_sup(w.ravel())
    assert shapes == [(side, side)] and calls == [(side, side)]
    expected = rank_one_proof_sup_wrapped(w.ravel(), side, SHIFT_MARGINS, sketch=False)
    assert _bits(value, *atom.factors, upper) == _bits(*expected)


def test_rank_one_failed_sketch_try_falls_back_to_the_eigensolver_bit_for_bit(
    monkeypatch,
):
    # the sketch's one try fails: C is formed again, and dsyevr's estimate
    # places the next try at the first margin, with the bits of the path
    # without the sketch
    w = _low_rank(64, 8, seed=3).ravel()
    shapes = _recorded_dsyevr(monkeypatch)
    calls = _failing_dpotrf(monkeypatch, 1)
    value, atom, upper = RankOneDictionary(64).certified_sup(w)
    assert shapes == [(SKETCH_WIDTH, SKETCH_WIDTH), (64, 64)]
    assert len(calls) == 2
    expected = rank_one_proof_sup_wrapped(w, 64, SHIFT_MARGINS, sketch=False)
    assert _bits(value, *atom.factors, upper) == _bits(*expected)


def test_proof_side_is_where_the_worst_case_looseness_reaches_the_budget():
    # derived from the bound, not from a workload: about (n + 1) n u / 2
    looseness = dictionaries._proof_looseness
    assert looseness(PROOF_SIDE) <= PROOF_RTOL < looseness(PROOF_SIDE + 1)
    assert 120 <= PROOF_SIDE <= 135
    u = np.finfo(float).eps / 2.0
    for n in (8, 64, PROOF_SIDE, 256):
        assert looseness(n) == pytest.approx((n + 1) * n * u / 2.0, rel=0.1)


def _cholesky_cases():
    """(name, A) scaled to max|A| = 1, with known singular values: flat,
    clustered, rank one and a linear spectrum, at sides 2 to 128."""
    for side in (2, 16, 64, 128):
        clustered = 1.0 - 1e-6 * np.arange(side)
        clustered[max(side // 4, 1) :] = 0.5
        rank_one = np.zeros(side)
        rank_one[0] = 1.0
        spectra = {"flat": np.ones(side), "clustered": clustered,
                   "rank one": rank_one, "linear": np.linspace(1.0, 0.01, side)}
        for kind, s in spectra.items():
            a = known_spectrum(s, side)[0]
            yield f"{kind} {side}", a / np.abs(a).max()


def _try_cholesky(a, mu):
    c = a.T @ a
    return verified_cholesky(c, c.diagonal().copy(), mu)


def test_verified_cholesky_fails_below_the_top_eigenvalue_and_proves_above_it():
    # with lambda = sigma_max(A)^2 and the proof's relative allowance
    # a = 2 * _proof_looseness(n): a shift below lambda by the allowance, or
    # by half, must fail; one above lambda_max(C) by the allowance must
    # succeed and prove lambda <= bound <= (mu + a lambda)(1 + 1e-15). At
    # lambda_max(C) itself floating-point Cholesky may succeed or fail; a
    # success must still prove a true bound
    for name, a in _cholesky_cases():
        n = a.shape[0]
        lam = float(np.linalg.svd(a, compute_uv=False)[0]) ** 2
        top_c = float(np.linalg.eigvalsh(a.T @ a)[-1])
        allowance = 2.0 * dictionaries._proof_looseness(n)
        for mu in (lam * (1.0 - 2.0 * allowance), 0.5 * lam):
            assert _try_cholesky(a, mu) == (None, math.inf), name
        for mu in (top_c, float(np.nextafter(top_c, 0.0))):
            _, bound = _try_cholesky(a, mu)
            assert bound >= lam, name
        mu = top_c * (1.0 + allowance)
        _, bound = _try_cholesky(a, mu)
        assert lam <= bound <= (mu + allowance * lam) * (1.0 + 1e-15), name


def test_verified_cholesky_bound_covers_a_top_eigenvalue_of_c_below_sigma_max():
    # side 128, one singular value 1 over 127 at 0.99: fl(A^T A)'s rounding
    # puts lambda_max(C) below sigma_max(A)^2 (by 8 u on the build that
    # tests/output_digests_gate.txt names), and Cholesky at a shift there,
    # or a few ulps below, succeeds on some of them. Every success must
    # still prove a bound above sigma_max(A)^2, which the shift alone is
    # not: only the allowance carries it
    n, u = 128, np.finfo(float).eps / 2.0
    a = known_spectrum(np.r_[1.0, np.full(n - 1, 0.99)], 15)[0]
    a /= np.abs(a).max()
    lam = float(np.linalg.svd(a, compute_uv=False)[0]) ** 2
    top_c = float(np.linalg.eigvalsh(a.T @ a)[-1])
    assert top_c < lam
    bounds = [_try_cholesky(a, top_c * (1.0 - k * u))[1] for k in range(4)]
    proven = [bound for bound in bounds if bound < math.inf]
    assert proven
    assert all(bound >= lam for bound in proven)


def test_verified_cholesky_solves_on_the_factor_then_overwrites_it():
    # solve sees the factor L of mu I - C in the lower triangle of the
    # Fortran-ordered c.T, before the proof overwrites it with |L|
    a = known_spectrum(np.linspace(1.0, 0.1, 8), 0)[0]
    c = a.T @ a
    mu = 1.0 + 1e-6
    seen = []

    def solve(factor):
        seen.append(np.tril(factor))
        return "solved"

    work = c.copy()
    solved, bound = verified_cholesky(work, c.diagonal().copy(), mu, solve)
    assert solved == "solved" and 1.0 <= bound
    (low,) = seen
    assert np.allclose(low @ low.T, mu * np.eye(8) - c, rtol=0.0, atol=1e-14)
    assert np.array_equal(np.tril(work.T), np.abs(low))


def test_row_sum_bound_is_above_the_largest_row_sum():
    # F F^T for nonnegative lower-triangular F: the bound is at or above
    # its largest row sum, so above its spectral radius (eigvalsh), and
    # within a few roundings of it
    rng = np.random.default_rng(9)
    for n in (1, 5, 64):
        f = np.tril(rng.random((n, n))) + np.eye(n)
        rows = float((f @ f.T).sum(axis=1).max())
        bound = dictionaries._row_sum_bound(np.asfortranarray(f))
        assert float(np.linalg.eigvalsh(f @ f.T)[-1]) <= rows <= bound
        assert bound <= rows * (1.0 + 1e-13)


def _drawn_w(kind, side, rank, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "random":
        w = rng.standard_normal((side, side))
    else:
        s = np.ones(side)
        if kind == "clustered":
            s = 1.0 - 1e-9 * np.arange(side)
            s[max(side // 4, 1) :] = np.linspace(0.5, 0.01, side - max(side // 4, 1))
        elif kind == "rank-deficient":
            s[rank:] = 0.0
        w = known_spectrum(s, seed)[0]
    return scale * w


@settings(max_examples=80, deadline=None)
@given(
    side=st.integers(1, PROOF_SIDE),
    kind=st.sampled_from(["flat", "clustered", "rank-deficient", "random"]),
    rank=st.integers(1, 2 * SKETCH_WIDTH),
    seed=st.integers(0, 2**16),
    exponent=st.integers(-300, 300),
)
def test_rank_one_proof_bounds_sigma_max_and_certifies_at_t_one(
    side, kind, rank, seed, exponent
):
    # a rank-deficient W of rank up to SKETCH_WIDTH reaches the sketch
    # above that side, one of higher rank is screened out of it
    w = _drawn_w(kind, side, rank, seed, 10.0**exponent)
    value, atom, upper = RankOneDictionary(side).certified_sup(w.ravel())
    assert value <= upper
    assert upper >= float(np.linalg.svd(w, compute_uv=False)[0])
    cert = select_gradient_greedy(RankOneDictionary(side), w.ravel(), 1.0)
    assert 1.0 - cert.ratio <= 1e-12


def test_rank_one_row_orthogonal_to_v1_finds_v1():
    w, _ = _row_orthogonal_to_v1()
    u, v, sigma, _ = _rank_one_sup(w)
    u_ref, v_ref, sigma_ref = top_singular_eigh(w)
    assert sigma == pytest.approx(sigma_ref, rel=1e-14)
    assert 1.0 - abs(float(v @ v_ref)) <= 1e-14
    assert 1.0 - abs(float(u @ u_ref)) <= 1e-14


def test_rank_one_overflowing_sup_raises():
    # entries near 1e308: s_1 overflows, and a reference of inf would make
    # the slack 1e-10 * inf certify any atom
    w = np.full((4, 4), 1e308)
    _, _, upper = RankOneDictionary(4).certified_sup(w.ravel())
    assert upper == math.inf
    with pytest.raises(WeaknessCertificationError):
        select_gradient_greedy(RankOneDictionary(4), w.ravel(), 1.0)


def test_rank_one_singular_shifted_system_raises(monkeypatch):
    # the SVD path's shifted system: above PROOF_SIDE, and at side 4 once
    # every Cholesky try has failed
    def singular(a, b, **kwargs):  # dgesv's report of a zero pivot U[0, 0]
        return a, np.zeros(len(b), dtype=np.int32), b, 1

    monkeypatch.setattr(dictionaries, "dgesv", singular)
    side = PROOF_SIDE + 1
    w = np.random.default_rng(4).standard_normal(side * side)
    with pytest.raises(WeaknessCertificationError):
        RankOneDictionary(side).certified_sup(w)
    _failing_dpotrf(monkeypatch, len(SHIFT_MARGINS))
    w = np.random.default_rng(4).standard_normal(16)
    with pytest.raises(WeaknessCertificationError):
        RankOneDictionary(4).certified_sup(w)


# ---------------------------------------------------------------------------
# rank-one dictionary


def test_rank_one_realize():
    dic = RankOneDictionary(2)
    atom = Atom(-1, 1, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert np.array_equal(dic.realize(atom), [0.0, 1.0, 0.0, 0.0])
    negated = Atom(-1, -1, atom.factors)
    assert np.array_equal(dic.realize(negated), [0.0, -1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        dic.realize(Atom(-1, 1))


def test_rank_one_dimensions_and_budget():
    # the selection is a fixed number of LAPACK calls: no iteration budget
    dic = RankOneDictionary(4)
    assert dic.ambient_dim == 16
    with pytest.raises(TypeError):
        RankOneDictionary(4, max_iter=7)
    with pytest.raises(ValueError):
        RankOneDictionary(0)


def test_rank_one_sup_zero():
    value, atom, upper = RankOneDictionary(3).certified_sup(np.zeros(9))
    assert (value, upper) == (0.0, 0.0)
    assert atom.factors is not None


def test_rank_one_sup_diag():
    value, atom, upper = RankOneDictionary(2).certified_sup(
        np.diag([3.0, 1.0]).ravel()
    )
    assert value == pytest.approx(3.0, rel=1e-15)
    assert 3.0 <= upper <= 3.0 * (1.0 + 1e-12)  # sigma_max, not Frobenius
    u, v = atom.factors
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-15)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# gradient-greedy selection


class _LooseBoundDictionary:
    """A test-only dictionary whose upper bound exceeds its value: the
    canonical basis of R^n, with a Frobenius-like upper = sqrt(n) * value."""

    def __init__(self, n):
        self.inner = canonical(n)
        self.ambient_dim = n

    def realize(self, atom):
        return self.inner.realize(atom)

    def certified_sup(self, w):
        value, atom, _ = self.inner.certified_sup(w)
        return value, atom, math.sqrt(self.ambient_dim) * value


def test_select_gradient_greedy_finite():
    cert = select_gradient_greedy(canonical(), np.array([1.0, 2.0]), 1.0)
    assert cert.atom == Atom(1, 1)
    assert cert.score == 2.0
    assert cert.reference == 2.0
    assert cert.ratio == 1.0
    # exact selection dominates any weakness
    weak = select_gradient_greedy(canonical(), np.array([1.0, 2.0]), 0.4)
    assert weak.atom == cert.atom


def test_select_gradient_greedy_shift():
    # the convex relaxation's functional <w, phi - G> has shift = <w, G>
    cert = select_gradient_greedy(canonical(), np.array([1.0, 2.0]), 0.5, 0.5)
    assert cert.atom == Atom(1, 1)  # the shift does not move the argmax
    assert cert.score == 1.5
    assert cert.reference == 1.5
    assert cert.ratio == 1.0


@pytest.mark.parametrize("shift", [0.0, -1.0, 0.5])
def test_select_gradient_greedy_shift_certifies_and_raises(shift):
    # the certificate is checked against the upper bound, not the value: for
    # the all-ones vector, score 1 and reference sqrt(3) before the shift
    dic = _LooseBoundDictionary(3)
    w = np.ones(3)
    frob = math.sqrt(3.0)
    ratio = (1.0 - shift) / (frob - shift)
    cert = select_gradient_greedy(dic, w, ratio, shift)
    assert cert.score == pytest.approx(1.0 - shift, abs=1e-12)
    assert cert.reference == pytest.approx(frob - shift, abs=1e-12)
    assert cert.ratio == pytest.approx(ratio, abs=1e-12)
    # t * reference - score = 100 * WEAKNESS_SLACK, above the slack
    # WEAKNESS_SLACK * max(1, sqrt(3), |shift|)
    t = ratio + 100.0 * WEAKNESS_SLACK / (frob - shift)
    with pytest.raises(WeaknessCertificationError):
        select_gradient_greedy(dic, w, t, shift)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_select_gradient_greedy_slack_scales_with_the_sup(scale):
    # the slack is WEAKNESS_SLACK * max(1, upper, |shift|): a deficit of half
    # of it certifies and twice it raises, at every scale of the gradient
    dic = _LooseBoundDictionary(3)
    w = scale * np.ones(3)
    upper = math.sqrt(3.0) * scale
    slack = WEAKNESS_SLACK * max(1.0, upper)
    select_gradient_greedy(dic, w, (scale + 0.5 * slack) / upper)
    with pytest.raises(WeaknessCertificationError):
        select_gradient_greedy(dic, w, (scale + 2.0 * slack) / upper)


def test_select_gradient_greedy_validates_weakness():
    for t in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            select_gradient_greedy(canonical(), np.ones(2), t)


def test_select_gradient_greedy_rank_one_two_block():
    w = np.zeros((3, 3))
    w[0, 1] = 5.0
    w[2, 2] = 1.0
    cert = select_gradient_greedy(RankOneDictionary(3), w.ravel(), 0.9)
    assert cert.score == pytest.approx(5.0, rel=1e-8)
    assert cert.ratio >= 1.0 - 1e-12
    u, v = cert.atom.factors
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-7)
    assert abs(v[1]) == pytest.approx(1.0, abs=1e-7)


def test_select_gradient_greedy_uncertifiable_fails_loudly():
    # an upper bound the selected atom's score cannot reach at t=1
    with pytest.raises(WeaknessCertificationError):
        select_gradient_greedy(_LooseBoundDictionary(3), np.ones(3), 1.0)


def test_uncertified_selection_aborts_with_the_records_before_it():
    # the loose bound certifies the ratio 1/sqrt(3) ~ 0.577: t = 0.5 passes
    # at m = 1, 2 and t = 0.9 fails at m = 3, which keeps the first two records
    with pytest.raises(GreedyRunError) as err:
        run_greedy(
            make_least_squares(np.array([3.0, 2.0, 1.0])),
            _LooseBoundDictionary(3),
            [0.5, 0.5, 0.9],
            BestStep(),
            StopRule(max_m=5, sup_tol=-1.0),
        )
    assert err.value.iteration == 3
    assert isinstance(err.value.cause, WeaknessCertificationError)
    trace = err.value.trace
    assert trace.stop_reason is StopReason.ABORTED
    assert [rec.m for rec in trace.records] == [1, 2]
    assert [rec.atom for rec in trace.records] == [Atom(0, 1), Atom(1, 1)]
    assert trace.point == pytest.approx([3.0, 2.0, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# e-greedy selection


def test_select_e_greedy_fixed():
    obj = make_least_squares(np.array([2.0, 1.0]))
    assert select_e_greedy_fixed(canonical(), obj, np.zeros(2), 1.0) == Atom(0, 1)
    neg = make_least_squares(np.array([-2.0, 1.0]))
    assert select_e_greedy_fixed(canonical(), neg, np.zeros(2), 1.0) == Atom(0, -1)
    with pytest.raises(ValueError):
        select_e_greedy_fixed(canonical(), obj, np.zeros(2), 0.0)
    with pytest.raises(UnsupportedDictionaryError):
        select_e_greedy_fixed(
            RankOneDictionary(2), make_least_squares(np.zeros(4)), np.zeros(4), 1.0
        )


# ---------------------------------------------------------------------------
# synthesis mass


def test_synthesis_l1():
    assert synthesis_l1([0.3, -0.2]) == 0.5
    assert synthesis_l1([]) == 0.0
    assert synthesis_l1([1.0]) == 1.0
