"""Keyed products and elimination for matrices over GF(p^k); the field does
all code-stack arithmetic (Field.add_many, Field.matmul).

_kernel(fld, d) multiplies d x d matrices given by their codec keys by a fixed
code matrix g: left(g, K) = g @ K[i] and right(K, g) = K[i] @ g, each returning
keys, and conj(K, g, g_inv, shift) = (g @ K[i] @ g_inv) << shift, one pass of
table lookups by key chunks on GF(2^k) uint64 keys.  left also takes an (L, d,
d) stack g and returns (L, len(K)) keys.  Both kernels walk K in blocks of
_PACKED_CHUNK keys into one output, and left reads each block once for the
whole stack.  When bits * d^2 <= 64 (bits =
bit_length(q - 1)) and the scalar-times-row table fits _PACK_TABLE_LIMIT, a
key is the uint64 word of its matrix and _Packed adds rows looked up in
tables: GF(2^k) packs while its table fits, GF(3) up to d = 5, GF(5) and
GF(7) up to d = 4, and GF(9) to GF(13) up to d = 3.  _Wide, for other shapes,
decodes each block, multiplies it by Field.matmul and encodes the product.  A
codec maps code stacks to keys and back (decode), takes the least key of each
row of a key array, and holds its key width and the identity's key; other
modules use the one of _kernel(fld, d).  _eliminate runs one Gauss-Jordan over
a stack, a pivot per matrix.
"""

import operator
from functools import lru_cache, reduce

import numpy as np

# Keys per block of a product or a codec pass: keeps packed words in L2-sized
# blocks (half the time of a large pair) and bounds code-stack temporaries.
_PACKED_CHUNK = 1 << 14
# Largest scalar-times-row table the packed path builds, 2^bits x 2^(bits d);
# a chunk-sum table has at most 2^16 words, or 2^18 for 1 x 1 over q > 256.
_PACK_TABLE_LIMIT = 1 << 18
# Most key bits per lookup of a GF(2^k) conjugation: a w-bit key is read in
# ceil(w / 12) equal chunks, three of 12 bits (4096-word tables) for C(3,2)u's
# 36-bit keys and two of 9 bits for A(2,4)u's 18.
_CONJ_BITS = 12


class _U64Codec:
    """Pack d^2 codes into one uint64, entry 0 most significant: width =
    bits d^2 bits per key, and one, the read-only keys of the identity alone."""

    def __init__(self, bits, d, dtype):
        self.d, self.dtype, self.width = d, dtype, bits * d * d
        self.shifts = (bits * np.arange(d * d - 1, -1, -1)).astype(np.uint64)
        self.mask = np.uint64((1 << bits) - 1)
        self.one = self.keys(np.eye(d, dtype=dtype)[None])
        self.one.flags.writeable = False

    def keys(self, stack):
        """The keys of a code stack, by shift and or, a block of matrices at a
        time so that no |stack| x d^2 uint64 temporary is built."""
        flat, out = stack.reshape(len(stack), -1), np.empty(len(stack), dtype=np.uint64)
        for lo in range(0, len(flat), _PACKED_CHUNK):
            part = flat[lo:lo + _PACKED_CHUNK].astype(np.uint64)
            part <<= self.shifts
            np.bitwise_or.reduce(part, axis=1, out=out[lo:lo + len(part)])
        return out

    def decode(self, keys):
        """The code stack of keys, by shift and mask, a block of keys at a
        time so that no |keys| x d^2 uint64 temporary is built."""
        out = np.empty((len(keys), len(self.shifts)), dtype=self.dtype)
        for lo in range(0, len(keys), _PACKED_CHUNK):
            part = keys[lo:lo + _PACKED_CHUNK, None] >> self.shifts
            part &= self.mask
            out[lo:lo + len(part)] = part
        return out.reshape(-1, self.d, self.d)

    def least(self, rows):
        """The least key of each row of a 2-D key array."""
        return rows.min(axis=1)


class _VoidCodec:
    """Raw big-endian byte keys for wide matrices; width and one as above."""

    def __init__(self, d, dtype):
        self.d, self.dtype = d, dtype
        self.be = ">u2" if np.dtype(dtype).itemsize == 2 else "u1"
        self.width = 8 * np.dtype(self.be).itemsize * d * d
        self.void = f"V{self.width // 8}"
        self.one = self.keys(np.eye(d, dtype=dtype)[None])
        self.one.flags.writeable = False

    def keys(self, stack):
        flat = np.ascontiguousarray(stack.reshape(stack.shape[0], -1).astype(self.be))
        return flat.view(self.void).ravel()

    def decode(self, keys):
        """The code stack of keys, read through a big-endian view."""
        return np.ascontiguousarray(keys).view(self.be).astype(self.dtype).reshape(-1, self.d, self.d)

    def least(self, rows):
        """The least key of each row of a 2-D key array, by a row sort."""
        return np.sort(rows, axis=1)[:, 0]


def _bits(fld):
    return max((fld.q - 1).bit_length(), 1)


def _make_codec(fld, dim):
    if _bits(fld) * dim * dim <= 64:
        return _U64Codec(_bits(fld), dim, fld.code_dtype)
    return _VoidCodec(dim, fld.code_dtype)


def _are_keys(fld, dim, keys):
    """Whether keys strictly increase and are keys of dim x dim matrices over
    fld: the last, and so every, packed word has no bit above its entries,
    and no entry is q or more, which no packed entry is when q = 2^bits.
    Packed rows of at most 16 bits are looked up in a table that says, for
    every row, whether it holds such an entry; other keys are decoded."""
    codec, bits = _kernel(fld, dim).codec, _bits(fld)
    packed, width = isinstance(codec, _U64Codec), bits * dim
    if not np.array_equal(np.sort(keys), keys) or (keys[1:] == keys[:-1]).any():
        return False
    if packed and int(keys[-1:].max(initial=0)) >> codec.width:
        return False
    if packed and fld.q == 1 << bits:
        return True
    if not packed or width > 16:
        return codec.decode(keys).max(initial=0) < fld.q
    over = np.arange(1 << bits) >= fld.q
    bad = reduce(operator.or_, (over[e] for e in _axes(bits, dim))).ravel()
    mask = np.uint64((1 << width) - 1)
    return not any(bad[((keys >> np.uint64(s)) & mask).view(np.intp)].any()
                   for s in range(0, codec.width, width))


class _Keyed:
    """Conjugation, shared by both kernels; linear says whether keys are
    uint64 words over GF(2^k), whose entries add by XOR."""

    def __init__(self, fld, d):
        self.fld, self.codec = fld, _make_codec(fld, d)
        self.linear = fld.p == 2 and isinstance(self.codec, _U64Codec)

    def conj(self, K, g, g_inv, shift=0):
        """(g @ K[i] @ g_inv) << shift as keys, shift keeping them within 64
        bits (0 for byte keys), by right then left; or for linear keys in one
        pass: conjugation is GF(2)-linear on their bits, so a conjugate is
        the XOR of one lookup per chunk of at most _CONJ_BITS bits of the key,
        in a table of the span of that chunk's bits' shifted conjugates."""
        if not self.linear:
            out = self.left(g, self.right(K, g_inv))
            return np.left_shift(out, np.uint64(shift), out=out) if shift else out
        width, d, fld = self.codec.width, self.codec.d, self.fld
        c = -(-width // -(-width // _CONJ_BITS))
        # key bit i is bit b of entry (r, col), the matrix 2^b E_(r, col), whose
        # conjugate is 2^b (column r of g)(row col of g^-1)
        e, b = np.divmod(np.arange(width), _bits(fld))
        r, col = np.divmod(d * d - 1 - e, d)
        column = fld.mul_many(1 << b[:, None], g.T[r])
        images = self.codec.keys(fld.mul_many(column[:, :, None], g_inv[col, None, :]))
        tables = np.zeros((-(-width // c), 1 << c), dtype=np.uint64)
        images = np.append(images << np.uint64(shift), np.zeros(-width % c, np.uint64)).reshape(-1, c)
        for i in range(c):  # the span doubles with each bit of the chunk
            np.bitwise_xor(tables[:, :1 << i], images[:, i, None], out=tables[:, 1 << i:2 << i])
        out, idx = np.zeros_like(K), np.empty(min(len(K), _PACKED_CHUNK), dtype=np.uint64)
        for lo in range(0, len(K), _PACKED_CHUNK):
            part, res = K[lo:lo + _PACKED_CHUNK], out[lo:lo + _PACKED_CHUNK]
            for i, t in enumerate(tables):
                at = np.right_shift(part, np.uint64(c * i), out=idx[:len(part)])
                at &= np.uint64((1 << c) - 1)
                res ^= t[at.view(np.intp)]
        return out


class _Wide(_Keyed):
    """Keyed products for shapes too wide to pack: per block of keys, decode,
    multiply on the field and encode into one output, as _Packed does."""

    def left(self, g, K):
        """g @ K[i] for a (d, d) code matrix g, or for each matrix of an
        (L, d, d) stack g as (L, len(K)) keys, decoding each block of K once."""
        stack = g.reshape(-1, *g.shape[-2:])
        out = np.empty((len(stack), len(K)), dtype=K.dtype)
        for lo in range(0, len(K), _PACKED_CHUNK):
            X = self.codec.decode(K[lo:lo + _PACKED_CHUNK])
            for res, m in zip(out[:, lo:lo + len(X)], stack):
                res[:] = self.codec.keys(self.fld.matmul(m, X))
        return out if g.ndim == 3 else out[0]

    def right(self, K, g):
        """K[i] @ g for a fixed (d, d) code matrix g."""
        out = np.empty_like(K)
        for lo in range(0, len(K), _PACKED_CHUNK):
            X = self.codec.decode(K[lo:lo + _PACKED_CHUNK])
            out[lo:lo + len(X)] = self.codec.keys(self.fld.matmul(X, g))
        return out


def _axes(bits, n):
    """Open index grids of n axes: on the flat grid, each word's n entries."""
    return np.ix_(*[np.arange(1 << bits)] * n)


class _Packed(_Keyed):
    """Matrices over a small field as uint64 words, each the _U64Codec key of
    its matrix: bits = bit_length(q - 1) per entry and width = bits d per row.
    A product looks rows up in a scalar-times-row table over every bits-bit
    scalar and every width-bit row; entries q .. 2^bits - 1 never occur, and
    the table reduces them mod q so that every lookup is in range.  Rows add
    by XOR for p = 2 and otherwise by one lookup per chunk of c entries in a
    2^(bits c) x 2^(bits c) chunk-sum table.  Each table broadcasts the q x q
    product or sum table, padded to 2^bits, over its entry axes."""

    def __init__(self, fld, d):
        super().__init__(fld, d)
        self.d, self.bits = d, _bits(fld)
        bits, width = self.bits, self.bits * d
        self.width = np.uint64(width)
        self.row_mask = np.uint64((1 << width) - 1)
        self.row_shift = [np.uint64(width * (d - 1 - i)) for i in range(d)]
        self.eye, self._last = np.eye(d, dtype=int).tolist(), (None, None)
        shifts, pad = [np.uint64(bits * (d - 1 - j)) for j in range(d)], np.arange(1 << bits) % fld.q
        # table[c, r] = c * r for every scalar c and row r
        mul, ix = fld.mul_many(pad[:, None], pad).astype(np.uint64), _axes(bits, d + 1)
        self.table = reduce(operator.or_, (mul[ix[0], e] << s for e, s in zip(ix[1:], shifts))
                            ).reshape(1 << bits, -1)
        # sums[(x << cw) | y] = x + y for chunks x, y of c entries; _kernel's
        # limits keep a row to two chunks
        c = min(max(8 // bits, 1), d)
        self.cw, self.chunk_mask = np.uint64(bits * c), np.uint64((1 << bits * c) - 1)
        add, ix = fld.add_many(pad[:, None], pad).astype(np.uint64), _axes(bits, 2 * c)
        self.sums = None if fld.p == 2 else reduce(operator.or_, (
            add[x, y] << s for x, y, s in zip(ix[:c], ix[c:], shifts[d - c:]))).ravel()

    def _add(self, x, y, own=False):
        """Sums of packed rows of one shape: one chunk-sum lookup, its index
        words built over x if own, or two lookups when a row is wider than a
        chunk (its low c entries, then the rest)."""
        cw, m = self.cw, self.chunk_mask
        if self.sums is None:
            return np.bitwise_xor(x, y, out=x if own else None)
        if self.width <= cw:
            w = np.left_shift(x, cw, out=x if own else None)
            w |= y
            return self.sums[w.view(np.intp)]
        lo, hi = ((x & m) << cw) | (y & m), ((x >> cw) << cw) | (y >> cw)
        return self.sums[lo.view(np.intp)] | self.sums[hi.view(np.intp)] << cw

    def left(self, g, K):
        """g @ K[i] for a (d, d) code matrix g, or for each matrix of an
        (L, d, d) stack g as (L, len(K)) keys.  Rows where a matrix is the
        identity are copied under one mask; each other row adds the rows of
        K it names, times their scalars.  A block of K has the rows that any
        plan names extracted once for the whole stack, and each sum is
        shifted into place over its own array."""
        plans = self._plans(g)
        named = {j for _, moved in plans for _, terms in moved for j, _ in terms}
        out, rows = np.empty((len(plans), len(K)), dtype=np.uint64), {}

        def term(j, tab):
            return rows[j] if tab is None else tab[rows[j].view(np.intp)]

        for lo in range(0, len(K), _PACKED_CHUNK):
            part = K[lo:lo + _PACKED_CHUNK]
            for j in named:
                rows[j] = row = part >> self.row_shift[j]
                row &= self.row_mask
            for res, (keep, moved) in zip(out[:, lo:lo + len(part)], plans):
                np.bitwise_and(part, keep, out=res)
                for shift, ((j, tab), *rest) in moved:
                    acc, own = term(j, tab), tab is not None
                    for j, tab in rest:
                        acc, own = self._add(acc, term(j, tab), own), True
                    res |= np.left_shift(acc, shift, out=acc if own else None)
        return out if g.ndim == 3 else out[0]

    def _plans(self, g):
        """Per matrix of g: the mask of its identity rows, and per other
        nonzero row its shift and its terms (row of K, scalar table or None
        for 1), table terms first so that a sum starts on a fresh array.
        Only the last stack's plans are kept."""
        key = (g.dtype.str, g.tobytes())
        if self._last[0] != key:
            plans = []
            for m in g.reshape(-1, self.d, self.d).tolist():
                same = [row == e for row, e in zip(m, self.eye)]
                keep = sum(int(self.row_mask) << int(s) for s, e in zip(self.row_shift, same) if e)
                plans.append((np.uint64(keep), [
                    (s, sorted([(j, self.table[c] if c > 1 else None) for j, c in enumerate(row) if c],
                               key=lambda t: t[1] is None))
                    for row, s, e in zip(m, self.row_shift, same) if not e and any(row)]))
            self._last = (key, plans)
        return self._last[1]

    def right(self, K, g):
        """K[i] @ g for a fixed (d, d) code matrix g.  The table of r @ g over
        every packed row r is the sum over j of entry j of r times row j of
        g, d lookups broadcast over the entry axes.  Where two rows fit 16
        bits, K is read two rows per lookup in a uint16 table of row pairs."""
        w, gk = int(self.width), int(self.codec.keys(g[None])[0])
        rt = reduce(self._add, np.broadcast_arrays(*(
            self.table[e, (gk >> int(s)) & int(self.row_mask)]
            for e, s in zip(_axes(self.bits, self.d), self.row_shift))))
        # a row is at most 16 bits (_kernel's table limit), so uint16 holds it
        rt, span = rt.astype(np.uint16).ravel(), 2 * w if 2 * w <= 16 else w
        rt = (rt[:, None] << w | rt).ravel() if span > w else rt
        # for odd d the top lookup reads one row, and the pairs table gives
        # it back as it is: its index is below 2^width
        lookups = [np.uint64(s) for s in range(0, w * self.d, span)]
        # blocks of K write into one output: no list of blocks to join
        mask, out = np.uint64((1 << span) - 1), np.zeros(len(K), dtype=np.uint64)
        for lo in range(0, len(K), _PACKED_CHUNK):
            part, res = K[lo:lo + _PACKED_CHUNK], out[lo:lo + _PACKED_CHUNK]
            for s in lookups:
                idx = part >> s
                idx &= mask
                np.left_shift(rt[idx.view(np.intp)], s, out=idx, dtype=np.uint64)
                res |= idx
        return out


@lru_cache(maxsize=None)
def _kernel(fld, d):
    """The keyed product kernel for d x d matrices over fld."""
    bits = _bits(fld)
    if bits * d * d <= 64 and 1 << (bits + bits * d) <= _PACK_TABLE_LIMIT:
        return _Packed(fld, d)
    return _Wide(fld, d)


def _eliminate(fld, a):
    """Gauss-Jordan elimination of a stack of n r x c code matrices, all at
    once with a pivot per matrix: the per-matrix arrays (rank, det, inverse),
    det and inverse None unless r == c (0 and zeros if singular).  Pivot rows
    stay where they are: each column records its own, a zero row r stands in
    for a missing pivot, and the inverse reads its rows in pivot order."""
    n, r, c = np.shape(a)
    m = np.zeros((n, r + 1, c + r * (r == c)), dtype=fld.code_dtype)
    m[:, :r, :c] = a
    m[:, :r, c:] = np.eye(r, m.shape[2] - c, dtype=m.dtype)
    free, idx = np.ones((n, r + 1), dtype=bool), np.arange(n)
    pivots, values = [], []
    for col in range(c):
        at = m[:, :, col]
        live = (at != 0) & free
        live[:, r] = True
        p = live.argmax(axis=1)
        free[idx, p] = False
        row = m[idx, p]
        unit = fld.mul_many(fld.inv_table[row[:, col]][:, None], row)
        # the pivot row cancels itself here and is set to its unit multiple
        m = fld.add_many(m, fld.mul_many(fld.neg_table[at][:, :, None], unit[:, None, :]))
        m[idx, p] = unit
        pivots.append(p)
        values.append(row[:, col])
    P = np.stack(pivots, axis=1)
    if r != c:
        return (P < r).sum(axis=1), None, None
    det = reduce(fld.mul_many, values)
    # det a = sign of the pivot-row permutation (none when p = 2) times the pivots
    odd = np.triu(P[:, :, None] > P[:, None, :]).sum(axis=(1, 2)) % 2 == 1
    det = np.where(odd, fld.neg_table[det], det)
    return (P < r).sum(axis=1), det, m[idx[:, None], P, c:]
