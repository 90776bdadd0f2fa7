"""Matrix groups over small fields: exhaustive enumeration, exact spectra, centers."""

import math
from functools import lru_cache

import numpy as np

from ..arith import _factor, divisors
from ..groups import GroupSpec, group_order, parse_group_spec
from ..record import Record
from .field import build_field
from .kernel import _PACKED_CHUNK, _eliminate, _kernel

DEFAULT_CAP = 1 << 24
# A round of the coset closure that could pass the cap goes in parts of the
# room left under it, or of this many products if that is more, and
# CapExceeded.found, the elements of the cosets known at the abort, is
# reported as at most this many past the cap.
_CAP_CHUNK = 1 << 12


class CapExceeded(RuntimeError):
    """Closure passed the cap; .found, a lower bound on |G|, is at most _CAP_CHUNK past it.
    From the closure, .cosets is the number of cosets of H named and .subgroup is |H|."""

    def __init__(self, found, cap, cosets=None, subgroup=None):
        at = "" if cosets is None else f" ({cosets} cosets of a subgroup of order {subgroup})"
        super().__init__(f"enumeration exceeded cap {cap}: at least {found} elements found{at}")
        self.found, self.cap, self.cosets, self.subgroup = found, cap, cosets, subgroup


def _codes(a, fld):
    """a as uint16 codes, or None if an entry is no integer in 0..q-1."""
    kind = a.dtype.kind
    if kind not in "biuf" or not a.max(initial=0) < fld.q or (
            kind in "if" and not a.min(initial=0) >= 0):
        return None
    codes = a.astype(np.uint16, copy=False)
    return None if kind == "f" and (codes != a).any() else codes


class Matrix:
    """A dim x dim matrix of field codes.  Classical models stay at dim <= 12;
    permutation modules can push the cap to 64."""

    __slots__ = ("field", "a")

    def __init__(self, fld, entries):
        self.field = fld
        a = np.asarray(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] > 64:
            raise ValueError("square matrices of dimension at most 64 only")
        self.a = _codes(a, fld)
        if self.a is None:
            raise ValueError("entry is not a field code")

    @property
    def dim(self):
        return self.a.shape[0]

    def __matmul__(self, other):
        if self.field != other.field or self.dim != other.dim:
            raise ValueError("matrices of different fields or sizes")
        return Matrix(self.field, self.field.matmul(self.a, other.a))

    def __pow__(self, e):
        if e < 0:
            raise ValueError(f"negative exponent {e}: matrix powers take no inverse")
        return Matrix(self.field, self.field.matpow(self.a, e))

    def is_identity(self):
        return bool((self.a == np.eye(self.dim, dtype=np.uint16)).all())

    def order(self):
        m, g = 1, self
        while not g.is_identity():
            g = g @ self
            m += 1
            if m > 1 << 20:
                raise RuntimeError("order runaway")
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash((self.field, self.a.tobytes()))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.a.tolist()})"


class MatrixGroup(Record):
    """A matrix group given by a read-only (n, dim, dim) uint16 code stack of
    n >= 1 generators, with the code stack of their inverses from the
    elimination that checks them."""

    _fields = ("field", "dim", "generators", "name")

    def __init__(self, field, dim, generators, name=None):
        if not 1 <= dim <= 64:
            raise ValueError(f"dimension {dim} is outside 1..64")
        gens = _codes(np.array(generators), field)
        if gens is None or (gens.ndim, *gens.shape[1:]) != (3, dim, dim) or not len(gens):
            raise ValueError(f"generator is not a {dim}x{dim} matrix over {field}")
        gens.flags.writeable = False
        rank, _, inverses = _eliminate(field, gens)
        if (rank < dim).any():
            raise ValueError("generator not invertible")
        vars(self).update(field=field, dim=dim, generators=gens, name=name, inverses=inverses)

    def _values(self):
        """The generators compare and hash by their bytes."""
        return self.field, self.dim, self.generators.tobytes(), self.name

    def key(self):
        gens = tuple(sorted(g.tobytes() for g in self.generators))
        return (self.field.p, self.field.k, self.field.modulus, self.dim, gens)


class GroupRecord:
    """An enumerated group: its elements as sorted codec keys, a code stack
    that generates it and the stack of their inverses, and its class data
    and V x| G, filled in on first use.  Equal only to itself."""

    def __init__(self, field, dim, keys, generators, inverses):
        self.field, self.dim, self.keys = field, dim, keys
        self.generators, self.inverses = generators, inverses
        self.classes = self.semidirect = None


class ElementTable(Record):
    """Exhaustive element data: size, order histogram, spectrum of orders.  The
    payload, left out of comparison and repr, is the GroupRecord of an
    enumerated group, else None.  A table may be assigned to, so it has no hash."""

    _fields = ("size", "order_histogram", "spectrum")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, size, order_histogram, spectrum, payload=None):
        if sum(order_histogram.values()) != size:
            raise ValueError(f"order histogram does not sum to the size {size}")
        if list(spectrum) != sorted(set(order_histogram)):
            raise ValueError("spectrum is not the sorted histogram keys")
        if not spectrum or spectrum[0] != 1:
            raise ValueError("1 is not the least order of the spectrum")
        members, exponent = set(spectrum), math.lcm(*spectrum)
        primes = _factor(exponent)
        for m in members:
            if any(m % p == 0 and m // p not in members for p in primes):
                raise ValueError(f"spectrum not divisor-closed at {m}")
        # Frobenius: for n dividing |G|, n divides the count of x with x^n = 1,
        # which is the count for gcd(n, exponent), a divisor of gcd(|G|, exponent)
        counts = {g: sum(c for m, c in order_histogram.items() if g % m == 0)
                  for g in divisors(math.gcd(size, exponent))}
        for n in divisors(size):
            if counts[math.gcd(n, exponent)] % n:
                raise ValueError(f"elements of order dividing {n} are not a multiple of {n}")
        self.size, self.order_histogram, self.spectrum = size, order_histogram, spectrum
        self.payload = payload

    def _record(self):
        if not isinstance(self.payload, GroupRecord):
            raise ValueError("no group record: only an enumerated table holds elements")
        return self.payload

    def element(self, i):
        rec = self._record()
        return Matrix(rec.field, _kernel(rec.field, rec.dim).codec.decode(rec.keys[i:i + 1])[0])

    def orders(self):
        """Per-element orders, in key order: the one per-element view of the class orders."""
        _, label, _, orders = _classes(self._record())
        return orders[label]


def _lookup(keys, pk):
    """Which of pk are among the sorted keys."""
    return keys[np.minimum(np.searchsorted(keys, pk), len(keys) - 1)] == pk


def _closure(fld, d, gens, cap):
    """Sorted keys of the group generated by the (n, d, d) code stack gens,
    and the indices of the generators adopted (those not in the group H of
    the ones before).  The first lists its powers by doubling.  Adopting a
    later g enumerates the left cosets of H in <H, g>, which left
    multiplication permutes: a coset is named by its least key.  Each part
    of a round is multiplied by the whole adopted stack in one left call, and
    one np.unique of the known leads (unique, first) and the part's names its
    new cosets: the first occurrences past the known ones.  In the first
    round, whose frontier is H, the earlier generators give H's known lead."""
    kern, codec = _kernel(fld, d), _kernel(fld, d).codec
    keys, adopted = codec.one, []
    for i, gk in enumerate(codec.keys(gens)):
        if _lookup(keys, gk[None])[0]:
            continue
        adopted.append(i)
        if len(adopted) == 1:
            keys = _powers(fld, kern, gens[i], cap)
            continue
        # leads holds the least key of each coset found, sorted
        stack, n, frontier = gens[adopted], len(keys), keys[None]
        blocks, leads = [frontier], keys[:1]
        while len(frontier):
            fresh, lo = [], 0
            while lo < len(frontier):
                room = max(cap - n * len(leads), _CAP_CHUNK)
                part = frontier[lo:lo + max(1, room // (len(stack) * n))]
                lo += len(part)
                rows, known = kern.left(stack, part.ravel()).reshape(-1, n), len(leads)
                leads, first = np.unique(np.concatenate([leads, codec.least(rows)]), return_index=True)
                fresh.append(rows[first[first >= known] - known])
                if n * len(leads) > cap:
                    raise CapExceeded(min(n * len(leads), cap + _CAP_CHUNK), cap, len(leads), n)
            frontier = np.concatenate(fresh)
            blocks.append(frontier)
        keys = np.concatenate(blocks).ravel()
        keys.sort()
    return keys, adopted


def _powers(fld, kern, g, cap):
    """Sorted keys of <g>, g not the identity: with g^0 .. g^(L-1) known, one
    left call by g^L gives the next L powers, or as many as the cap leaves
    room for, as in a closure round, up to the identity.  Order m takes
    ceil(log2 m) calls."""
    powers, gl, eye = kern.codec.one, g, np.eye(len(g), dtype=g.dtype)
    while not (gl == eye).all():
        new = kern.left(gl, powers[:max(cap - len(powers), _CAP_CHUNK)])
        end = np.flatnonzero(new == kern.codec.one[0])
        powers = np.concatenate([powers, new[:end[0]] if len(end) else new])
        if len(powers) > cap:
            raise CapExceeded(len(powers), cap, len(powers), 1)
        if len(end):
            break
        gl = fld.matmul(kern.codec.decode(powers[-1:])[0], g)
    powers.sort()
    return powers


def _classes(rec):
    """Class data of a group, kept in its record: (reps, label, sizes,
    orders), the least index of each class (ascending), each element's class,
    the class sizes and the class orders.  Sorting a generator's conjugates
    gives its inverse permutation, proved one when they sort to the keys: in
    the low bits of the words (key << ib) | index sorted in place where key
    and index fit a uint64 word, else by an argsort."""
    if rec.classes is not None:
        return rec.classes
    fld, keys, n = rec.field, rec.keys, len(rec.keys)
    kern, ib = _kernel(fld, rec.dim), (n - 1).bit_length()
    by_sort = kern.codec.width + ib <= 64
    perms = []
    for g, g_inv in zip(rec.generators, rec.inverses):
        pk = kern.conj(keys, g, g_inv, ib if by_sort else 0)
        if by_sort:
            pk |= np.arange(n, dtype=np.uint64)
            pk.sort()
            perms.append((pk & (1 << ib) - 1).astype(np.int32))
            pk >>= ib
        else:
            perm = np.argsort(pk)
            pk = pk[perm]
            perms.append(perm.astype(np.int32))
        if not np.array_equal(pk, keys):
            raise RuntimeError("conjugate left the set")
    # each element takes the least label along its conjugates, pointer
    # jumping shortcuts the chains, and a running count numbers the classes
    lab, old = np.arange(n, dtype=np.int32), None
    while not np.array_equal(lab, old):
        old = lab
        for P in perms:
            lab = np.minimum(lab, _gather(lab, P))
        lab = _gather(lab, lab)
    del perms, old
    first = lab == np.arange(n, dtype=np.int32)
    label = _gather(np.cumsum(first, dtype=np.int32) - 1, lab)
    reps = np.flatnonzero(first)
    rec.classes = reps, label, np.bincount(label), _least_powers(rec, reps, kern.codec.one)
    return rec.classes


def _gather(a, idx):
    """a[idx] for int32 idx in range, in blocks: numpy's intp copy of idx is one block."""
    out = np.empty(len(idx), dtype=a.dtype)
    for lo in range(0, len(idx), _PACKED_CHUNK):
        a.take(idx[lo:lo + _PACKED_CHUNK], out=out[lo:lo + _PACKED_CHUNK], mode="clip")
    return out


def _least_powers(rec, reps, target):
    """Per class rep x, the least m >= 1 with x^m among the sorted keys
    target, a central subset holding 1 (so reached by |G|): with x^1 .. x^L
    known, one stacked Field.matmul by x^L gives x^(L+1) .. x^2L, so order m
    takes ceil(log2 m) products."""
    codec = _kernel(rec.field, rec.dim).codec
    if not _lookup(target, codec.one)[0]:
        raise RuntimeError("order runaway: a target without the identity may never be reached")
    known = codec.decode(rec.keys[reps])[:, None]
    idx, new, m = np.arange(len(known)), known, np.zeros(len(known), dtype=np.int64)
    while True:
        hit = _lookup(target, codec.keys(new.reshape(-1, rec.dim, rec.dim))).reshape(new.shape[:2])
        done = hit.any(axis=1)
        m[idx[done]] = known.shape[1] - new.shape[1] + 1 + hit[done].argmax(axis=1)
        if done.all():
            return m
        if known.shape[1] >= len(rec.keys):
            raise RuntimeError("order runaway: an element's order exceeds the group's")
        idx, known = idx[~done], known[~done]
        known = np.concatenate([known, rec.field.matmul(known, known[:, -1:])], axis=1)
        new = known[:, known.shape[1] // 2:]


def _table(orders, sizes, payload=None, zn=1):
    """ElementTable counted from per-class orders and class sizes; with
    zn > 1, of the cosets of a central subgroup of order zn."""
    hist = {}
    for m, size in sorted(zip(orders.tolist(), sizes.tolist())):
        hist[m] = hist.get(m, 0) + size
    if any(count % zn for count in hist.values()):
        raise RuntimeError(f"an order count is not divisible by |Z| = {zn}")
    return ElementTable(size=sum(hist.values()) // zn,
                        order_histogram={m: count // zn for m, count in hist.items()},
                        spectrum=tuple(hist), payload=payload)


_TABLE_MEMO = {}


def _memoize(group, table, cap):
    """Check the table of group against its closed-form order (on memo hits
    too: groups that differ only in name share an entry) and the cap, and
    keep it in the memo, which no other module writes."""
    want = None if group.name is None else group_order(group.name).n
    if want is not None and table.size != want:
        raise RuntimeError(f"enumerated {table.size} elements, {group.name} has order {want}")
    _TABLE_MEMO[group.key()] = table
    if table.size > cap:  # a memo hit: no closure ran, so no cosets
        raise CapExceeded(min(table.size, cap + _CAP_CHUNK), cap)
    return table


def enumerate_group(group, cap=DEFAULT_CAP):
    """Exhaustive closure of the generators, coset by coset, with exact orders."""
    if cap < 1:
        raise ValueError(f"the cap must be at least 1, got {cap}")
    table = _TABLE_MEMO.get(group.key())
    if table is None:
        keys, adopted = _closure(group.field, group.dim, group.generators, cap)
        rec = GroupRecord(group.field, group.dim, keys, group.generators[adopted],
                          group.inverses[adopted])
        _, _, sizes, orders = _classes(rec)
        table = _table(orders, sizes, rec)
    return _memoize(group, table, cap)


def _elementary(fld, dim, *entries):
    """The identity matrix with the given (row, column, value) entries."""
    m = np.eye(dim, dtype=np.uint16)
    for r, c, v in entries:
        m[r, c] = v
    return m


def _roots(fld, dim, roots, form=None, conj=None):
    """For each (row, column, value) entry list, its root element and the
    transpose, the opposite root; with a form F, each t is checked to keep
    it: t^T F conj(t) = F, conj the identity when not given."""
    ups = np.array([_elementary(fld, dim, *entries) for entries in roots])
    gens = np.stack([ups, ups.transpose(0, 2, 1)], axis=1).reshape(-1, dim, dim)
    if form is not None:
        image = fld.matmul(fld.matmul(gens.transpose(0, 2, 1), form),
                           gens if conj is None else conj[gens])
        if not (image == form).all():
            raise RuntimeError("generator breaks the form")
    return gens


def _sl_generators(fld, dim):
    return _roots(fld, dim, [[(i, i + 1, b)] for i in range(dim - 1) for b in fld.basis()])


def _sp_generators(fld, n):
    """Root elements for the form [[0, I], [-I, 0]]: short roots, then the long root."""
    dim, basis = 2 * n, fld.basis()
    form = np.zeros((dim, dim), dtype=np.uint16)
    form[range(n), range(n, dim)] = 1
    form[range(n, dim), range(n)] = fld.neg(1)
    roots = [[(i, i + 1, b), (n + i + 1, n + i, fld.neg(b))] for i in range(n - 1) for b in basis]
    return _roots(fld, dim, roots + [[(n - 1, dim - 1, b)] for b in basis], form)


def _su_generators(fld2, dim, k_base):
    """Root elements of SU for the antidiagonal Hermitian form over GF(q^2),
    with m = dim // 2 and a over a basis, a~ = a^q: short roots
    (i, i+1, a), (dim-2-i, dim-1-i, -a~) for i < m - 1; for odd dim the
    middle root (m-1, m, a), (m, m+1, -a~), (m-1, m+1, -N(a) t), t the first
    code of trace 1; the long root (m-1, dim-m, lam) for each nonzero
    trace-zero lam = theta - theta~, theta over the basis."""
    conj = np.array([fld2.frob(x, k_base) for x in range(fld2.q)], dtype=np.uint16)
    m, basis = dim // 2, fld2.basis()
    bar = [fld2.neg(int(conj[a])) for a in basis]  # -a~
    roots = [[(i, i + 1, a), (dim - 2 - i, dim - 1 - i, na)]
             for i in range(m - 1) for a, na in zip(basis, bar)]
    if dim % 2:
        t = next(c for c in range(fld2.q) if fld2.add(c, int(conj[c])) == 1)
        roots += [[(m - 1, m, a), (m, m + 1, na), (m - 1, m + 1, fld2.mul(fld2.mul(a, na), t))]
                  for a, na in zip(basis, bar)]
    lams = sorted({fld2.add(th, nth) for th, nth in zip(basis, bar)} - {0})
    roots += [[(m - 1, dim - m, lam)] for lam in lams]
    return _roots(fld2, dim, roots, np.eye(dim, dtype=np.uint16)[::-1], conj)


def classical_generators(spec):
    """Matrix generators realizing the universal version: SL, SU, or Sp, one
    group per (family, rank, q), built from root elements and eliminated once."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    return _universal(GroupSpec(spec.family, spec.rank, spec.q, "universal"))


@lru_cache(maxsize=None)
def _universal(uni):
    if uni.family not in ("A", "C", "2A"):
        raise ValueError(f"no matrix model for family {uni.family}")
    fld = build_field(uni.p, 2 * uni.k if uni.family == "2A" else uni.k)
    if uni.family == "A":
        return MatrixGroup(fld, uni.rank + 1, _sl_generators(fld, uni.rank + 1), uni)
    if uni.family == "C":
        return MatrixGroup(fld, 2 * uni.rank, _sp_generators(fld, uni.rank), uni)
    return MatrixGroup(fld, uni.rank + 1, _su_generators(fld, uni.rank + 1, uni.k), uni)


def spectrum_table(spec, cap=DEFAULT_CAP):
    """ElementTable for the named group; simple versions go through the
    universal matrix group and its central quotient."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    return _version_table(classical_generators(spec), spec.version, cap)


def _version_table(group, version, cap):
    """The universal group's table, or that of G/Z for Z its singleton classes."""
    table = enumerate_group(group, cap)
    if version == "universal":
        return table
    rec = table.payload
    reps, _, sizes, _ = _classes(rec)
    zk = rec.keys[reps[sizes == 1]]
    return _table(_least_powers(rec, reps, zk), sizes, zn=len(zk))
