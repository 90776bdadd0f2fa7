"""The product kernel against a scalar triple loop over Field.mul and Field.add."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega.oracle import build_field, classical_generators, enumerate_group, kernel
from omega.oracle.kernel import _Packed, _Wide, _eliminate, _kernel, _make_codec

# Every field shape: p = 2 with k = 1 and k > 1, odd p with k = 1 and k > 1,
# and q > 2048, where the field has no full multiplication or addition table.
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (7, 1), (3, 2), (5, 2), (2, 12), (3, 7)]

SETTINGS = settings(max_examples=40, deadline=None, database=None)


def ref_product(fld, A, B):
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for col in range(B.shape[1]):
            acc = 0
            for j in range(A.shape[1]):
                acc = fld.add(acc, fld.mul(int(A[i, j]), int(B[j, col])))
            out[i, col] = acc
    return out


def ref_det(fld, rows):
    """Laplace expansion along the first row."""
    if not rows:
        return 1
    det = 0
    for j, x in enumerate(rows[0]):
        minor = ref_det(fld, [row[:j] + row[j + 1:] for row in rows[1:]])
        term = fld.mul(x, minor)
        det = fld.add(det, fld.neg(term) if j % 2 else term)
    return det


@st.composite
def problems(draw, max_d=4, max_w=None):
    """A field, a dimension, a fixed matrix g and a stack X of code matrices."""
    p, k = draw(st.sampled_from(FIELDS))
    fld = build_field(p, k)
    d = draw(st.integers(1, max_d))
    w = d if max_w is None else draw(st.integers(1, max_w))
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # sparse draws reach the 0 and 1 shortcuts of the row combination
    dense = draw(st.booleans())

    def codes(*shape):
        a = rng.integers(0, fld.q, size=shape)
        if not dense:
            a = np.where(rng.random(shape) < 0.6, rng.integers(0, 2, size=shape), a)
        return a.astype(fld.code_dtype)

    # g is also the identity with one or two rows replaced, or a monomial
    # matrix: a left product copies identity rows and computes the others
    g, shape = codes(d, d), draw(st.sampled_from(["codes", "rows", "monomial"]))
    if shape == "rows":
        kept = rng.permutation(d)[draw(st.integers(1, 2)):]
        g[kept] = np.eye(d, dtype=g.dtype)[kept]
    elif shape == "monomial":
        g = np.zeros((d, d), dtype=fld.code_dtype)
        g[np.arange(d), rng.permutation(d)] = rng.integers(1, fld.q, size=d)
    return fld, d, g, codes(n, d, w), codes(n, d, d)


def kernels(fld, d):
    """The kernel the oracle uses for (fld, d), and the keyed code-stack one."""
    return {type(k).__name__: k for k in (_kernel(fld, d), _Wide(fld, d))}.values()


def ref_rank(fld, rows):
    """Row reduction one scalar at a time."""
    rows, rank = [list(map(int, row)) for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fld.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            f = fld.mul(rows[i][col], inv)
            rows[i] = [fld.add(x, fld.neg(fld.mul(f, y))) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@SETTINGS
@given(problems(), st.sampled_from([2, 1 << 20]))
def test_left_right_pair(problem, chunk):
    check_kernels(*problem, chunk)


# packed shapes whose rows add in two chunks
@pytest.mark.parametrize("p, k, d", [(3, 2, 3), (7, 1, 3), (5, 1, 4), (3, 1, 5)])
def test_chunked_row_sums(p, k, d):
    fld = build_field(p, k)
    kern = _kernel(fld, d)
    assert isinstance(kern, _Packed) and kern.width > kern.cw
    rng = np.random.default_rng(p * k * d)
    g, X, Y = (rng.integers(0, fld.q, size=s).astype(fld.code_dtype)
               for s in ((d, d), (5, d, d), (5, d, d)))
    for chunk in (2, 1 << 20):
        check_kernels(fld, d, g, X, Y, chunk)


def check_kernels(fld, d, g, X, Y, chunk):
    # one pair of plain matrices, as Matrix.__matmul__ multiplies them
    assert (fld.matmul(X[0], Y[0]) == ref_product(fld, X[0], Y[0])).all()
    S = fld.add_many(X, Y)
    assert S.dtype == fld.code_dtype
    for i in range(len(X)):
        want = [[fld.add(int(a), int(b)) for a, b in zip(ra, rb)] for ra, rb in zip(X[i], Y[i])]
        assert (S[i] == np.array(want)).all()
    codec = _make_codec(fld, d)
    KX, KY = codec.keys(X), codec.keys(Y)
    for kern in kernels(fld, d):
        # chunk = 2 splits every stack of more than two keys into blocks
        with mock.patch.object(kernel, "_PACKED_CHUNK", chunk):
            L, R = kern.left(g, KX), kern.right(KX, g)
        for got, whole in ((L, kern.left(g, KX)), (R, kern.right(KX, g))):
            assert got.dtype == KX.dtype and got.shape == KX.shape
            assert (got == whole).all()
        # conj is the composition for any pair of matrices, shifted by as
        # much as a uint64 key leaves room for
        shift = 64 - codec.width if KX.dtype == np.uint64 else 0
        want = kern.left(g, kern.right(KX, Y[0]))
        assert (kern.conj(KX, g, Y[0]) == want).all()
        if shift:
            assert (kern.conj(KX, g, Y[0], shift) == want << np.uint64(shift)).all()
        L, R = codec.decode(L), codec.decode(R)
        for i in range(len(X)):
            assert (L[i] == ref_product(fld, g, X[i])).all()
            assert (R[i] == ref_product(fld, X[i], g)).all()


# right reads two rows per lookup where two rows fit 16 bits, else one; an
# odd d leaves its top lookup one row
@pytest.mark.parametrize("p, k, d, two", [
    (2, 1, 8, True), (2, 2, 3, True), (3, 1, 4, True), (5, 1, 2, True), (2, 1, 1, True),
    (3, 1, 5, False), (3, 2, 3, False), (7, 1, 3, False), (2, 3, 3, False)])
def test_right_reads_one_or_two_rows_per_lookup(p, k, d, two):
    fld = build_field(p, k)
    kern = _kernel(fld, d)
    assert isinstance(kern, _Packed) and (kern.width <= 8) == two
    rng = np.random.default_rng(p * k * d)
    g, X, Y = (rng.integers(0, fld.q, size=s).astype(fld.code_dtype)
               for s in ((d, d), (5, d, d), (5, d, d)))
    for chunk in (2, 1 << 20):
        check_kernels(fld, d, g, X, Y, chunk)


@SETTINGS
@given(problems(), st.data(), st.sampled_from([2, 1 << 20]))
def test_stacked_left_is_one_left_per_matrix(problem, data, chunk):
    # g is a drawn, identity-with-rows-replaced or monomial matrix; the
    # stack mixes it with the identity and the drawn Y, repeats included
    fld, d, g, X, Y = problem
    pool = [g, np.eye(d, dtype=fld.code_dtype), *Y]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    stacks = [np.stack([pool[i] for i in picks]), np.stack([g, g, pool[picks[0]], g]), g[None]]
    keys = _make_codec(fld, d).keys(X)
    for kern in kernels(fld, d):
        with mock.patch.object(kernel, "_PACKED_CHUNK", chunk):
            for stack in stacks:
                got = kern.left(stack, keys)
                assert got.dtype == keys.dtype and got.shape == (len(stack), len(keys))
                for row, m in zip(got, stack):
                    assert (row == kern.left(m, keys)).all()
            assert (kern.left(g, keys) == kern.left(g[None], keys)[0]).all()


def traced_peak(fn):
    """Traced peak bytes of a second call of fn."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_left_memory_budget():
    """Traced peak of left on C(2,3)u's 51840 keys: one generator took 1.31 MB
    (25.3 bytes per key) with a list of blocks joined at the end, and 1.20 MB
    with one output and sums built in place; the stack of the four generators
    adds only their outputs, 8 bytes per key each."""
    group = classical_generators("C(2,3)u")
    keys = enumerate_group(group).payload.keys
    kern, stack = _kernel(group.field, group.dim), group.generators
    assert max(traced_peak(lambda: kern.left(g, keys)) for g in stack) <= 25.3 * len(keys)
    assert traced_peak(lambda: kern.left(stack, keys)) <= (8 * (len(stack) - 1) + 25.3) * len(keys)


def test_wide_memory_budget():
    """Traced peak of the wide kernel on C(2,3)u's 51840 keys: its outputs
    plus two uint64 copies of one block's entries, whatever the number of
    keys.  Decoding all the keys at once took 6.2 MB for one matrix, 7.8 MB
    for the stack of four generators and 5.4 MB for right; in blocks, 3.2,
    4.5 and 3.2 MB."""
    group = classical_generators("C(2,3)u")
    keys = enumerate_group(group).payload.keys
    wide, stack = _Wide(group.field, group.dim), group.generators
    block = 2 * 8 * group.dim ** 2 * kernel._PACKED_CHUNK
    assert traced_peak(lambda: wide.left(stack[0], keys)) <= 8 * len(keys) + block
    assert traced_peak(lambda: wide.left(stack, keys)) <= 8 * len(stack) * len(keys) + block
    assert traced_peak(lambda: wide.right(keys, stack[0])) <= 8 * len(keys) + block


def test_kernels_take_and_return_keys_only():
    # the packed and the wide kernel share one keyed interface
    for cls in (_Packed, _Wide):
        assert {n for n in dir(cls) if not n.startswith("_")} == {"left", "right", "conj"}


# every GF(2^k) shape whose keys are uint64 words: widths 1 .. 64 bits, among
# them 16, 18, 27, 36 and 64, read in one to six chunks of up to 12 bits; a
# width such as 45 or 64 pads its last chunk
GF2K_WORDS = [(k, d) for k in range(1, 17) for d in range(1, 9) if k * d * d <= 64]


@pytest.mark.parametrize("k, d", GF2K_WORDS)
def test_gf2k_conj_is_one_table_pass(k, d):
    fld = build_field(2, k)
    codec = _make_codec(fld, d)
    rng = np.random.default_rng(k * 16 + d)
    stack = rng.integers(0, fld.q, size=(12, d, d)).astype(fld.code_dtype)
    rank, _, inv = _eliminate(fld, stack)
    gens, invs = stack[rank == d][:3], inv[rank == d][:3]
    assert len(gens)
    K = codec.keys(rng.integers(0, fld.q, size=(40, d, d)).astype(fld.code_dtype))
    for kern in kernels(fld, d):
        for g, g_inv in zip(gens, invs):
            want = kern.left(g, kern.right(K, g_inv))
            for shift in {0, 64 - codec.width}:
                # one table pass: no left or right product, blocks of 7 keys
                with mock.patch.object(kern, "right", side_effect=AssertionError), \
                        mock.patch.object(kern, "left", side_effect=AssertionError), \
                        mock.patch.object(kernel, "_PACKED_CHUNK", 7):
                    got = kern.conj(K, g, g_inv, shift)
                assert got.dtype == K.dtype and (got == want << np.uint64(shift)).all()


@SETTINGS
@given(problems(max_w=6))
def test_rectangular_operands(problem):
    fld, d, g, X, Y = problem
    left = fld.matmul(g, X)
    right = fld.matmul(np.transpose(X, (0, 2, 1)), g)
    wide = fld.matmul(Y, X[0])
    for i in range(len(X)):
        assert (left[i] == ref_product(fld, g, X[i])).all()
        assert (right[i] == ref_product(fld, X[i].T, g)).all()
        assert (wide[i] == ref_product(fld, Y[i], X[0])).all()


@SETTINGS
@given(problems(), st.sampled_from([2, 1 << 20]))
def test_packed_words_are_codec_keys(problem, chunk):
    fld, d, _, X, _ = problem
    codec, kern = _make_codec(fld, d), _kernel(fld, d)
    keys = codec.keys(X)
    # decoding in blocks of two keys crosses a block boundary
    with mock.patch.object(kernel, "_PACKED_CHUNK", chunk):
        decoded = codec.decode(keys)
    assert decoded.dtype == fld.code_dtype and (decoded == X).all()
    # a kernel's identity product gives the keys back unchanged
    eye = np.eye(d, dtype=fld.code_dtype)
    assert (kern.left(eye, keys) == keys).all() and (kern.right(keys, eye) == keys).all()


# at most 64 bits and a scalar-times-row table of at most 2^18 words; odd p
# whatever the size of its whole-row sums
PACKED = [(2, 2, 4), (2, 1, 8), (2, 3, 3), (3, 1, 4), (3, 1, 5), (3, 2, 2),
          (3, 2, 3), (7, 1, 3), (5, 1, 4), (7, 1, 4), (5, 2, 2)]


def test_packing_applies_where_promised():
    for p, k, d in PACKED:
        kern = _kernel(build_field(p, k), d)
        assert isinstance(kern, _Packed), (p, k, d)
        assert kern.table.size <= 1 << 18
        assert kern.sums is None or kern.sums.size <= 1 << 16
    # rows add in at most two chunks, for every odd-p shape that packs
    for q in (3, 7, 13, 31, 61, 127, 251, 509):
        for d in range(1, 9):
            kern = _kernel(build_field(q), d)
            assert not isinstance(kern, _Packed) or kern.width <= 2 * kern.cw, (q, d)
    # more than 64 bits, or a scalar-times-row table too large
    for p, k, d in [(2, 1, 9), (3, 1, 6), (3, 2, 4), (7, 1, 5), (5, 2, 3), (2, 12, 2)]:
        assert not isinstance(_kernel(build_field(p, k), d), _Packed), (p, k, d)


@pytest.mark.parametrize("p, k, d", PACKED)
def test_packed_tables_match_field_arithmetic(p, k, d):
    # every entry of every word, against Field.mul and Field.add on the
    # entries reduced mod q (codes q .. 2^bits - 1 never occur in a key)
    fld = build_field(p, k)
    kern, q, bits = _kernel(fld, d), fld.q, kernel._bits(fld)
    mul = np.array([[fld.mul(a % q, b % q) for b in range(1 << bits)] for a in range(1 << bits)])
    add = np.array([[fld.add(a % q, b % q) for b in range(1 << bits)] for a in range(1 << bits)])
    mask = (1 << bits) - 1

    def entry(words, j, n):
        return (np.asarray(words, dtype=np.uint64) >> np.uint64(bits * (n - 1 - j))) & np.uint64(mask)

    scalars, rows = np.indices(kern.table.shape)
    assert kern.table.shape == (1 << bits, 1 << bits * d)
    for j in range(d):
        assert (entry(kern.table, j, d) == mul[scalars, entry(rows, j, d).astype(np.intp)]).all()
    if p == 2:
        assert kern.sums is None
        return
    c = int(kern.cw) // bits
    x, y = np.indices((1 << bits * c, 1 << bits * c))
    sums = kern.sums.reshape(x.shape)
    for j in range(c):
        want = add[entry(x, j, c).astype(np.intp), entry(y, j, c).astype(np.intp)]
        assert (entry(sums, j, c) == want).all()


@SETTINGS
@given(problems(max_d=5, max_w=5), st.data())
def test_eliminate(problem, data):
    fld, d, g, X, Y = problem
    # make some of Y singular: the last row twice the first, or zero when d = 1
    for i in range(len(Y)):
        if data.draw(st.booleans()):
            Y[i, -1] = fld.mul_many(2 % fld.p, Y[i, 0]) if d > 1 else 0
    for A in (X, Y, g[None]):
        rank, det, inverse = _eliminate(fld, A)
        n, r, c = A.shape
        assert rank.shape == (n,)
        for i, a in enumerate(A):
            one_rank, one_det, one_inverse = _eliminate(fld, A[i:i + 1])
            assert rank[i] == one_rank[0] == ref_rank(fld, a)
            if r != c:
                assert det is None and inverse is None
                continue
            assert det[i] == one_det[0] == ref_det(fld, a.tolist())
            assert (det[i] == 0) == (rank[i] < r)
            if rank[i] == r:
                assert (inverse[i] == one_inverse[0]).all()
                assert (ref_product(fld, a, inverse[i]) == np.eye(r)).all()


@pytest.mark.parametrize("p, d", [(127, 4), (131, 4), (251, 1), (257, 1), (257, 2)])
def test_prime_field_products_near_the_uint16_bound(p, d):
    # d (p - 1)^2 < 2^16 multiplies in uint16 (127 at d = 4, 251 at d = 1);
    # the rest need int64, and all-(p - 1) operands would wrap in uint16
    fld = build_field(p)
    rng = np.random.default_rng(p * d)
    for X in (np.full((3, d, d), p - 1), rng.integers(0, p, size=(3, d, d))):
        X = X.astype(fld.code_dtype)
        g, Y = X[1], X[::-1]
        L, R, P = fld.matmul(g, X), fld.matmul(X, g), fld.matmul(X, Y)
        for i in range(len(X)):
            assert (L[i] == ref_product(fld, g, X[i])).all()
            assert (R[i] == ref_product(fld, X[i], g)).all()
            assert (P[i] == ref_product(fld, X[i], Y[i])).all()
