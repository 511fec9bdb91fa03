"""Walsh characters, their decay weights, and sub-lattice character sums.

A character sum over a sub-lattice is held as its tuple of exponent
counts, so the central zero-or-full dichotomy is decided in exact
integer arithmetic, with no complex value formed.  The
weight attached to a frequency k with leading base-p digit K at level g
is 1 / (p^(g+1) * sin(pi*K/p)^2), held exactly for every prime by its
rational coordinates in the cyclotomic field Q(zeta), zeta = e(1/p).
The Walsh bound sums these weights over the dual of a sub-lattice from
the sub-lattice's points, where the weighted Walsh series is rational,
so bounds are exact rationals for every prime.  _batch_bounds is the one
route to every bound and _modulus_bound its cached batch of one.  A
batch reads a shape's sums at the discrete log of r = B*q mod pX in the
modulus's unit group; at t = 1 a batch of at least p^m - 1 tuples reads
them off _group_sums, every unit's sums from one big-integer correlation
per level, capped a level column at a time, and a smaller one builds no
unit group: plattice.digit_matrix reads the leading Laurent digits of
{r/pX} off those of {q/pX}, and the sums are their rank profile.  The
route that forms B*q mod pX with a Poly product is the tests' oracle.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from fractions import Fraction

from .gfpoly import (
    BasePRational,
    Poly,
    laurent_coeffs,
    poly_from_int,
    poly_is_irreducible,
    poly_pow_mod,
    poly_to_int,
    valuation,
)
from .plattice import (
    LatticeConfig,
    SubLatticeSpec,
    _check_sublattice,
    digit_matrix,
    sublattice_enumerate,
    sublattice_matrices,
)


def walsh_exponent(k: int, x: BasePRational) -> int:
    """e(walsh_exponent/p) is the k-th Walsh character at x: the exponent is
    the digit dot product sum_j k_j * x_{j+1} mod p."""
    if k < 0:
        raise ValueError("frequency must be >= 0")
    p = x.p
    total = 0
    j = 1
    while k:
        k, kj = divmod(k, p)
        if kj:
            total += kj * x.digit(j)
        j += 1
    return total % p


def walsh_exponent_vec(kvec, point) -> int:
    """Exponent of the product character over a coordinate tuple."""
    p = point[0].p
    return sum(walsh_exponent(k, x) for k, x in zip(kvec, point)) % p


def walsh_weight(k: int, p: int) -> tuple:
    """Decay weight of frequency k as its coordinates c_0..c_(p-1) in
    Q(zeta), zeta = e(1/p): the weight is sum_s c_s * zeta^s.  As
    1/(1 - zeta) = -(1/p) sum_i i*zeta^i, 1/sin(pi/p)^2 =
    4/((1 - zeta)(1 - zeta^-1)) has c_s = (4/p^2) sum_i i*((i - s) mod p);
    the leading digit K maps zeta to zeta^K, moving the coordinate at s to
    s*K mod p, and the level g adds the factor p^-(g+1)."""
    if k < 0:
        raise ValueError("frequency must be >= 0")
    coords = [Fraction(0)] * p
    if k == 0:
        coords[0] = Fraction(1)
        return tuple(coords)
    g = 0
    lead = k
    while lead >= p:
        lead //= p
        g += 1
    for s in range(p):
        coords[s * lead % p] = Fraction(4 * sum(i * ((i - s) % p) for i in range(p)), p ** (g + 3))
    return tuple(coords)


def walsh_weight_total(p: int, m: int, t: int, mode: str = "closed") -> Fraction:
    """Total weight over all frequency tuples below p^m per component.

    closed: (1 + m*(p^2-1)/(3p))^t.
    direct: the p^m weights summed one by one in Q(zeta), whose sum is
    rational (equal coordinates at zeta^1..zeta^(p-1), as 1 + zeta + ... +
    zeta^(p-1) = 0), to the power t: by distributivity, the sum of the
    product weights over all p^(mt) tuples.
    """
    if m < 1 or t < 0:
        raise ValueError("need m >= 1 and t >= 0")
    if mode == "closed":
        return (1 + Fraction(m * (p * p - 1), 3 * p)) ** t
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r}")
    sums = [sum(coords) for coords in zip(*(walsh_weight(k, p) for k in range(p**m)))]
    if len(set(sums[1:])) != 1:
        raise ArithmeticError("weight sum is not rational")
    return (sums[0] - sums[1]) ** t


def _frequencies(cfg: LatticeConfig, kvec) -> tuple:
    """kvec as a tuple, checked to hold t frequencies, ints in [0, p^m)."""
    kvec = tuple(kvec)
    if len(kvec) != cfg.t or not all(isinstance(k, int) and 0 <= k < cfg.n_points for k in kvec):
        raise ValueError(f"need t = {cfg.t} frequencies, ints in [0, {cfg.p}^{cfg.m})")
    return kvec


def character_sum(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> tuple:
    """counts[a], the number of sub-lattice points whose k-th character
    exponent is a, for a = 0..p-1: the complex sum is sum_a counts[a] * e(a/p)."""
    kvec = _frequencies(cfg, kvec)
    counts = [0] * cfg.p
    for pt in sublattice_enumerate(spec, cfg):
        counts[walsh_exponent_vec(kvec, pt)] += 1
    return tuple(counts)


def character_magnitude(counts) -> int:
    """|sum_a counts[a] * e(a/p)| as an exact integer: the total when one
    exponent class holds every count (the residue shift only contributes a
    unimodular factor), 0 when the counts are equal; raises otherwise."""
    total = sum(counts)
    if total in counts:
        return total
    if len(set(counts)) == 1:
        return 0
    raise ArithmeticError("character sum is neither full nor zero")


def dual_test_matrix(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> bool:
    """True when the transposed affine digit maps annihilate the frequency:
    sum_i C_i^T k_i = 0 in GF(p)^d (vacuous for d = 0)."""
    kvec, p, d = _frequencies(cfg, kvec), cfg.p, spec.d
    if d == 0:
        return True
    matrices, _ = sublattice_matrices(spec, cfg)
    # base-p digits of each k_i, least significant first; missing ones are 0
    kdigits = [poly_from_int(k, p).coeffs for k in kvec]
    terms = [(row, kj) for mat, kd in zip(matrices, kdigits) for row, kj in zip(mat, kd)]
    return all(sum(row[c] * kj for row, kj in terms) % p == 0 for c in range(d))


def _combined_numerator(pX: Poly, kvec, qvec) -> Poly:
    """(sum_i k_i*q_i) mod pX, k_i the polynomial of its base-p digits."""
    terms = (poly_from_int(k, pX.p) * q for k, q in zip(kvec, qvec))
    return sum(terms, Poly.zero(pX.p)) % pX


@functools.lru_cache(maxsize=512)
def _combined_residues(cfg: LatticeConfig) -> tuple:
    """(kvec, (sum_i k_i*q_i) mod pX) for every nonzero frequency tuple:
    the frequency side of the dual weight sum, kept as a desk-scale
    reference for _modulus_bound."""
    kvecs = itertools.product(range(cfg.p**cfg.m), repeat=cfg.t)
    return tuple((k, _combined_numerator(cfg.modulus, k, cfg.generators)) for k in kvecs if any(k))


def dual_test_valuation(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> bool:
    """True when the fractional part of (sum_i k_i*q_i)*B / pX sinks below
    X^-d, i.e. its valuation is < -d."""
    kvec = _frequencies(cfg, kvec)
    f = (_combined_numerator(cfg.modulus, kvec, cfg.generators) * spec.cls.modulus) % cfg.modulus
    return valuation(f, cfg.modulus) < -spec.d


def count_low_valuation(pX: Poly, u: int) -> int:
    """Exhaustive count of nonzero a of degree < m with valuation(a/pX) < -u."""
    m = pX.degree
    if m < 1 or not pX.is_monic or not poly_is_irreducible(pX):
        raise ValueError("modulus must be monic irreducible")
    if not 0 <= u <= m:
        raise ValueError(f"level {u} outside [0, {m}]")
    count = 0
    for a in range(1, pX.p**m):
        if valuation(poly_from_int(a, pX.p), pX) < -u:
            count += 1
    return count


def _scaled_phi(digits, p: int) -> int:
    """3p * phi(x), phi(x) = sum_{k < p^m} w(k) wal_k(x) for the m-digit x:
    3p + (z+1)(p^2-1) - 6a(p-a) after z zero digits and a first nonzero
    digit a, or 3p + m(p^2-1) when every digit is zero."""
    for z, a in enumerate(digits):
        if a:
            return 3 * p + (z + 1) * (p * p - 1) - 6 * a * (p - a)
    return 3 * p + len(digits) * (p * p - 1)


@functools.lru_cache(maxsize=16)
def _unit_group(pX: Poly) -> tuple:
    """(log, F) of the cyclic unit group of GF(p)[X]/pX, N = p^m - 1, for a
    primitive g: log[enc r] = k for r = g^k (log[0] is None), and F[k] =
    F[k + N] = 3p*phi(m leading Laurent digits of g^k/pX), so log a + log b
    indexes F with no % N.  X is walked on integer lists in O(p^m * m) steps,
    once per coset of <X>: the residue shifts up less top * pX's low part,
    and the digits of any y/pX obey a_(k+m) = -sum_(i<m) low_i a_(k+i).  If
    X is not primitive, g passes the order test, the cosets start at g^j,
    j < c = N / ord X, and g^c = X^s on the walk from 1 gives log X."""
    p, m = pX.p, pX.degree
    n, low, powers = p**m - 1, pX.coeffs[:-1], [p**j for j in range(m)]

    def walk(start):  # (enc, 3p*phi) of start * X^i until it is back at start
        residue = [*start.coeffs, *[0] * (m - len(start.coeffs))]
        digits = list(laurent_coeffs(start, pX, m))
        first = code = poly_to_int(start)
        while True:
            window = digits[-m:]
            yield code, _scaled_phi(window, p)
            top = residue[-1]
            residue = [(x - top * c) % p for x, c in zip([0, *residue[:-1]], low)]
            digits.append(-sum(map(operator.mul, low, window)) % p)
            code = sum(map(operator.mul, residue, powers))
            if code in (first, 0):  # 0: X is no unit when pX = X
                return

    one = Poly.one(p)
    cycle = list(walk(one))
    cosets, g, step = n // len(cycle), Poly.x(p), 1
    if cosets > 1:
        primes = [f for f in range(2, n + 1) if n % f == 0 and all(f % k for k in range(2, f))]
        candidates = (poly_from_int(c, p) for c in range(2, n + 1))
        g = next(a for a in candidates if all(poly_pow_mod(a, n // f, pX) != one for f in primes))
        s = [code for code, _ in cycle].index(poly_to_int(poly_pow_mod(g, cosets, pX)))
        step = cosets * pow(s, -1, len(cycle)) % n
    log, F, start = [None] * (n + 1), [0] * n, one
    for j in range(cosets):
        for i, (code, phi) in enumerate(walk(start) if j else cycle):
            log[code] = k = (j + i * step) % n
            F[k] = phi
        start = start * g % pX
    return log, F + F


@functools.lru_cache(maxsize=4096)
def _rank_profile(pX: Poly, digits: tuple) -> tuple:
    """S_d = sum_l 3p*phi(M l) over l in GF(p)^d for every d = 0..m, M the m x m
    Hankel map [j][c] = digits[j + c] of the 2m - 1 leading Laurent digits
    of {r/pX}, from one elimination over its rows.

    phi(x) = 1 + sum_g [x_1 = ... = x_g = 0] f(x_(g+1)) with f of mean zero
    over GF(p) and f(0) = (p^2-1)/(3p).  On the kernel of rows 0..g-1 cut
    to d columns, row g is 0 where it depends on them and uniform over
    GF(p) where it does not, so
    S_d = 3p*p^d + (p^2-1) sum_g [row g depends] p^(d - rank of rows < g).
    Each reduced row keeps its pivot at its lowest nonzero column, so rows
    0..g-1 cut to d columns have rank #{their pivots < d}, and row g
    depends on them within d columns iff its own pivot is >= d (m for a
    row that reduces to zero).  A pivot at column c changes only columns
    >= c, so the m x d map of {r/pX} has this profile's first d + 1 sums."""
    p, m = pX.p, pX.degree
    pivots, lows = {}, []  # pivots: column -> reduced row, 1 there and 0 before it
    for j in range(m):
        row, low = digits[j : j + m], m
        for c in range(m):
            if row[c]:
                if c not in pivots:
                    low = c
                    break
                a = row[c]
                row = [(x - a * y) % p for x, y in zip(row, pivots[c])]
        if low < m:
            inverse = pow(row[low], -1, p)
            pivots[low] = [x * inverse % p for x in row]
        lows.append(low)
    powers = [p**k for k in range(m + 1)]
    sums = []
    for d in range(m + 1):
        dependent, rank = 0, 0
        for low in lows:
            if low < d:
                rank += 1
            else:
                dependent += powers[d - rank]
        sums.append(3 * p * powers[d] + (p * p - 1) * dependent)
    return tuple(sums)


def _table_sums(pX: Poly, shifts, dmax: int) -> tuple:
    """S_d for d = 0..dmax at t = len(shifts) >= 2, shifts[i] = log r_i in
    pX's unit-group table: the term of l is (3p + m(p^2-1))^t at l = 0,
    then prod_i F[log l + log r_i] for l = 1, 2, ... in encoding order,
    whose first p^d are deg l < d."""
    p, m, t = pX.p, pX.degree, len(shifts)
    log, F = _unit_group(pX)
    logs = log[1 : p**dmax]
    columns = (map(F.__getitem__, map(shift.__add__, logs)) for shift in shifts)
    terms = functools.reduce(functools.partial(map, operator.mul), columns)
    prefix = list(itertools.accumulate(terms, initial=(3 * p + m * (p * p - 1)) ** t))
    return tuple([prefix[p**d - 1] for d in range(dmax + 1)])


def _bound_tuples(p: int, m: int, t: int, levels) -> list:
    """The bound tuple of every lane of the sum columns levels[d] = S_d:
    t*p^(d-m) plus p^d times the dual weight sum p^-d * S_d/(3p)^t - 1,
    capped at p^d, as an integer over p^m * (3p)^t, one list per level:
    min(t*c + p^m*(S_d - c), p^m*c) with c = p^d*(3p)^t."""
    pm, c, columns = p**m, (3 * p) ** t, []
    for level in levels:
        low, cap = (t - pm) * c, pm * c
        columns.append([min(low + pm * s, cap) for s in level])
        c *= p
    return list(zip(*columns))


@functools.lru_cache(maxsize=4096)
def _laurent_prefix(pX: Poly, q: Poly) -> tuple:
    """The 3m - 2 leading Laurent digits of q/pX, once per (pX, q) for every shape."""
    return laurent_coeffs(q, pX, 3 * pX.degree - 2)


@functools.lru_cache(maxsize=65536)
def _modulus_bound(cfg: LatticeConfig, modulus: Poly) -> tuple:
    """The bound tuple of shape B = modulus for d = 0..m - deg B: the batch
    of one, cut where the t = 1 batch runs on to d = m."""
    bounds = _batch_bounds(cfg.modulus, (modulus,), (cfg.generators,))[0][0]
    return bounds[: max(cfg.m - modulus.degree + 1, 0)]


def _group_sums(pX: Poly) -> list:
    """S_d(b) for d = 0..m, one array of machine words per level over
    b < N = p^m - 1: the t = 1 sums of every unit r = g^b at once,
    S_d(b) = (3p + m(p^2-1)) + sum_l F[log l + b] over nonzero l, deg l < d.
    Level d < m adds the cyclic correlation of F with the logs k of
    deg l = d - 1, read off one big-integer product of F's N little-endian
    lanes, offset by min F to be nonnegative, and the level's log indicator
    reversed: lane N-1+b of the product sums the terms with k + b < N and
    lane b-1 those that wrap.  A lane holds at most (max F - min F) * N, so
    no lane carries into the next.  Level m sums F over the whole group,
    the same for every b.  struct packs the lanes: loading the array
    module costs about 70 KB of resident memory, more than a desk-scale
    search's tables."""
    p, m = pX.p, pX.degree
    n = p**m - 1
    log, F = _unit_group(pX)
    F = F[:n]
    lo = min(F)
    bits = ((max(F) - lo) * n).bit_length()
    size, code = next(lane for lane in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if 8 * lane[0] >= bits)
    signal = int.from_bytes(struct.pack(f"<{n}{code}", *[f - lo for f in F]), "little")
    base = 3 * p + m * (p * p - 1)
    levels = [memoryview(struct.pack("q", base) * n).cast("q")]
    for d in range(1, m):
        indicator = bytearray(n * size)
        for k in log[p ** (d - 1) : p**d]:
            indicator[(n - 1 - k) * size] = 1
        product = (signal * int.from_bytes(indicator, "little")).to_bytes(2 * n * size, "little")
        lanes = struct.unpack_from(f"<{2 * n - 1}{code}", product)
        offset = lo * (p - 1) * p ** (d - 1)
        wrapped = (0, *lanes[: n - 1])
        sums = [s + x + y + offset for s, x, y in zip(levels[-1], lanes[n - 1 :], wrapped)]
        levels.append(memoryview(struct.pack(f"{n}q", *sums)).cast("q"))
    levels.append(memoryview(struct.pack("q", base + sum(F)) * n).cast("q"))
    return levels


def _batch_bounds(pX: Poly, moduli, qvecs) -> list:
    """Per shape modulus B, the bound tuple of B for every qvec (at t = 1
    running on to d = m, at t >= 2 empty past it), one tuple built per
    residue and no Poly product: as {l*B*q_i/pX} = {l*r_i/pX}, the sums S_d
    over the points l*B, deg l < d, depend on r_i = B*q_i mod pX alone, so
    B enters as B mod pX, formed once per shape.  The residues are logs,
    log B + log q_i, sorted as the sum is symmetric; at t = 1 a batch of at
    least N = p^m - 1 tuples caps every unit's sums off _group_sums and
    reads each at (log B + log q) mod N.  A smaller t = 1 batch builds no
    unit group: digit_matrix reads the 2m - 1 leading digits of {r/pX} off
    the 3m - 2 of {q/pX}, one _laurent_prefix per (pX, q), and S_d is their
    rank profile."""
    p, m = pX.p, pX.degree
    residues = [B % pX for B in moduli]
    if any(r.is_zero for r in residues):
        raise ValueError("shape modulus is divisible by pX")
    if not qvecs:
        return [[] for _ in moduli]
    t = len(qvecs[0])
    if t == 1 and len(moduli) * len(qvecs) < p**m - 1:
        lanes, rows = {}, [[] for _ in moduli]  # lanes: digits of {r/pX} -> their lane
        for (q,) in qvecs:
            digits = _laurent_prefix(pX, q)
            for B, row in zip(residues, rows):
                row.append(lanes.setdefault(digit_matrix(digits, B, 1, 2 * m - 1)[0], len(lanes)))
        bounds = _bound_tuples(p, m, 1, zip(*[_rank_profile(pX, digits) for digits in lanes]))
        return [[bounds[k] for k in row] for row in rows]
    log, n = _unit_group(pX)[0], p**m - 1
    units = _bound_tuples(p, m, 1, _group_sums(pX)) if t == 1 else None
    logs = [[log[poly_to_int(q)] for q in qvec] for qvec in qvecs]
    memo, rows = {}, []
    for B, r in zip(moduli, residues):
        dmax, shift = m - B.degree, log[poly_to_int(r)]
        if units:
            rows.append([units[(shift + x) % n] for (x,) in logs])
        elif dmax < 0:  # no level past d = m
            rows.append([()] * len(qvecs))
        else:
            keys = [(dmax, *sorted([(shift + x) % n for x in qlogs])) for qlogs in logs]
            lanes = [key for key in dict.fromkeys(keys) if key not in memo]
            sums = zip(*[_table_sums(pX, key[1:], dmax) for key in lanes])
            memo.update(zip(lanes, _bound_tuples(p, m, t, sums)))
            rows.append([memo[key] for key in keys])
    return rows


def walsh_discrepancy_bound(spec: SubLatticeSpec, cfg: LatticeConfig) -> Fraction:
    """Rigorous upper bound on L * D*_L of the sub-lattice point set
    (L = p^d): t*p^(d-m) plus p^d times the dual weight sum, capped at the
    trivial bound p^d.  Independent of the residue and block position."""
    _check_sublattice(spec, cfg)
    bound = _modulus_bound(cfg, spec.cls.modulus)[spec.d]
    return Fraction(bound, cfg.p**cfg.m * (3 * cfg.p) ** cfg.t)
