"""Walsh characters, their decay weights, and sub-lattice character sums.

Character sums over a sub-lattice are held as exponent-count
accumulators so the central zero-or-full dichotomy is decided in exact
integer arithmetic, with no complex value formed.  The
weight attached to a frequency k with leading base-p digit K at level g
is 1 / (p^(g+1) * sin(pi*K/p)^2), held exactly for every prime by its
rational coordinates in the cyclotomic field Q(zeta), zeta = e(1/p).
The Walsh bound sums these weights over the dual of a sub-lattice from
the sub-lattice's points, where the weighted Walsh series is rational,
so bounds are exact rationals for every prime.  As {l*B*q/pX} =
{l*(B*q mod pX)/pX}, a shape's sum is the rank profile of that residue
for one generator, and reads one unit-group table per modulus for more.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
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


@dataclass(frozen=True)
class CharacterAccumulator:
    """counts[a] summands with character exponent a; the complex sum is
    sum_a counts[a] * e(a/p)."""

    p: int
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError("need one count per residue")

    @classmethod
    def from_exponents(cls, p: int, exponents) -> "CharacterAccumulator":
        counts = [0] * p
        for a in exponents:
            counts[a % p] += 1
        return cls(p, tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def is_aligned(self) -> bool:
        """All mass in a single exponent class: |sum| equals total (the
        residue shift only contributes a unimodular factor)."""
        return self.total in self.counts

    @property
    def is_uniform(self) -> bool:
        """Counts equal across residues: the sum vanishes."""
        return len(set(self.counts)) == 1

    def magnitude(self) -> int:
        """|sum| as an exact integer; raises if the dichotomy fails."""
        if self.is_aligned:
            return self.total
        if self.is_uniform:
            return 0
        raise ArithmeticError("character sum is neither full nor zero")


def character_sum(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> CharacterAccumulator:
    """Exact exponent accumulator of the k-th character over the sub-lattice."""
    kvec = tuple(kvec)
    if len(kvec) != cfg.t:
        raise ValueError("frequency tuple length must equal the lattice dimension")
    points = sublattice_enumerate(spec, cfg)
    return CharacterAccumulator.from_exponents(
        cfg.p, (walsh_exponent_vec(kvec, pt) for pt in points)
    )


def dual_test_matrix(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> bool:
    """True when the transposed affine digit maps annihilate the frequency:
    sum_i C_i^T k_i = 0 in GF(p)^d (vacuous for d = 0)."""
    p, d = cfg.p, spec.d
    if d == 0:
        return True
    matrices, _ = sublattice_matrices(spec, cfg)
    # base-p digits of each k_i, least significant first; missing ones are 0
    kdigits = [poly_from_int(k, p).coeffs for k in kvec]
    for c in range(d):
        acc = 0
        for mat, kd in zip(matrices, kdigits):
            acc += sum(row[c] * kj for row, kj in zip(mat, kd))
        if acc % p:
            return False
    return True


def _combined_numerator(cfg: LatticeConfig, kvec) -> Poly:
    p = cfg.p
    acc = Poly.zero(p)
    for k, q in zip(kvec, cfg.generators):
        acc = acc + poly_from_int(k, p) * q
    return acc % cfg.modulus


@functools.lru_cache(maxsize=512)
def _combined_residues(cfg: LatticeConfig) -> tuple:
    """(kvec, (sum_i k_i*q_i) mod pX) for every nonzero frequency tuple:
    the frequency side of the dual weight sum, kept as a desk-scale
    reference for _shape_sums."""
    out = []
    for kvec in itertools.product(range(cfg.p**cfg.m), repeat=cfg.t):
        if any(kvec):
            out.append((kvec, _combined_numerator(cfg, kvec)))
    return tuple(out)


def dual_test_valuation(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> bool:
    """True when the fractional part of (sum_i k_i*q_i)*B / pX sinks below
    X^-d, i.e. its valuation is < -d."""
    kvec = tuple(kvec)
    f = (_combined_numerator(cfg, kvec) * spec.cls.modulus) % cfg.modulus
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
def _rank_profile(pX: Poly, code: int) -> tuple:
    """S_d = sum_l 3p*phi(M l) over l in GF(p)^d for every d = 0..m, M the m x m
    Hankel map of {r/pX}, r encoded as code, from one elimination over its rows.

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
    digits = laurent_coeffs(poly_from_int(code, p), pX, 2 * m - 1)
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
    return tuple(prefix[p**d - 1] for d in range(dmax + 1))


def _shape_sums(cfg: LatticeConfig, modulus: Poly) -> tuple:
    """S_d = sum_l prod_i 3p*phi(x_i(l)) over the p^d points l*B, deg l < d,
    for every d = 0..m - deg B.  As {l*B*q_i/pX} = {l*r_i/pX} with
    r_i = B*q_i mod pX, S_d depends on r_i alone: at t = 1 it is read off
    r_1's rank profile; at t >= 2 off pX's unit-group table."""
    p, pX, dmax = cfg.p, cfg.modulus, cfg.m - modulus.degree
    b = (modulus * cfg.generators[0] if cfg.t == 1 else modulus) % pX  # r_1, or B mod pX
    if b.is_zero:
        raise ValueError("shape modulus is divisible by pX")
    if cfg.t == 1:
        return _rank_profile(pX, poly_to_int(b))[: dmax + 1]
    log, n = _unit_group(pX)[0], p**cfg.m - 1
    shifts = [(log[poly_to_int(b)] + log[poly_to_int(q)]) % n for q in cfg.generators]
    return _table_sums(pX, shifts, dmax)


def _bound_tuple(p: int, m: int, t: int, sums) -> tuple:
    """For every d, t*p^(d-m) plus p^d times the dual weight sum
    p^-d * S_d/(3p)^t - 1, capped at p^d, as an integer over p^m * (3p)^t:
    min(t*c + p^m*(S_d - c), p^m*c) with c = p^d*(3p)^t."""
    pm, scale = p**m, (3 * p) ** t
    caps = [p**d * scale for d in range(len(sums))]
    return tuple(min(t * c + pm * (s - c), pm * c) for c, s in zip(caps, sums))


@functools.lru_cache(maxsize=65536)
def _modulus_bound(cfg: LatticeConfig, modulus: Poly) -> tuple:
    """The bound tuple of shape B = modulus for d = 0..m - deg B."""
    return _bound_tuple(cfg.p, cfg.m, cfg.t, _shape_sums(cfg, modulus))


def _batch_bounds(pX: Poly, moduli, qvecs) -> list:
    """Per shape modulus B, _modulus_bound(LatticeConfig(p, pX, qvec), B) for
    every qvec (at t = 1 running on to d = m), one tuple built per residue
    and no Poly product.  At t = 1 the code of B*q mod pX is q's digits
    times the columns B*X^j mod pX, stepped by pX's recurrence; at t >= 2
    the residues are logs, log B + log q_i, sorted as the sum is symmetric."""
    p, m = pX.p, pX.degree
    t = len(qvecs[0])
    low, powers, memo, out = pX.coeffs[:-1], [p**j for j in range(m)], {}, []
    if t == 1:
        digits = [qvec[0].coeffs for qvec in qvecs]
    else:
        log, n = _unit_group(pX)[0], p**m - 1
        logs = [[log[poly_to_int(q)] for q in qvec] for qvec in qvecs]
    for B in moduli:
        b = B % pX
        if b.is_zero:
            raise ValueError("shape modulus is divisible by pX")
        row = []
        if t == 1:
            column, columns = [*b.coeffs, *[0] * (m - len(b.coeffs))], []
            for _ in range(m):  # X*r mod pX: shift up, less top * pX's low part
                columns.append(column)
                top = column[-1]
                column = [(x - top * c) % p for x, c in zip([0, *column[:-1]], low)]
            for qdigits in digits:
                r = [0] * m
                for a, col in zip(qdigits, columns):
                    if a:
                        r = [x + a * y for x, y in zip(r, col)]
                code = sum(x % p * w for x, w in zip(r, powers))
                bound = memo.get(code)
                if bound is None:
                    bound = memo[code] = _bound_tuple(p, m, 1, _rank_profile(pX, code))
                row.append(bound)
        else:
            dmax, shift = m - B.degree, log[poly_to_int(b)]
            for qlogs in logs:
                key = (dmax, *sorted((shift + x) % n for x in qlogs))
                bound = memo.get(key)
                if bound is None:
                    bound = memo[key] = _bound_tuple(p, m, t, _table_sums(pX, key[1:], dmax))
                row.append(bound)
        out.append(row)
    return out


def walsh_discrepancy_bound(spec: SubLatticeSpec, cfg: LatticeConfig) -> Fraction:
    """Rigorous upper bound on L * D*_L of the sub-lattice point set
    (L = p^d): t*p^(d-m) plus p^d times the dual weight sum, capped at the
    trivial bound p^d.  Independent of the residue and block position."""
    _check_sublattice(spec, cfg)
    bound = _modulus_bound(cfg, spec.cls.modulus)[spec.d]
    return Fraction(bound, cfg.p**cfg.m * (3 * cfg.p) ** cfg.t)
