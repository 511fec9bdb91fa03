"""Exact arithmetic over GF(p)[X] and truncated formal Laurent expansions.

A polynomial c_0 + c_1*X + ... + c_d*X^d is stored as the tuple
(c_0, ..., c_d) of residues in {0, ..., p-1} with no trailing zero
entries; the zero polynomial is the empty tuple and its degree is the
sentinel NEG_INF (never the ordinary integer -1).  All values are
immutable and all operations are exact.

This module also holds the two small value types shared by the point
constructions: BasePRational, an exact coordinate a/p^L in [0,1), and
ResidueClass, a congruence constraint modulo a monic polynomial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

NEG_INF = float("-inf")


class ParseError(ValueError):
    """Malformed polynomial text; .position is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p >= 2 defining the coefficient field GF(p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"modulus {self.p!r} is not prime")

    def __int__(self) -> int:
        return self.p


def as_prime(p) -> int:
    """Coerce an int or PrimeModulus to a validated prime int."""
    if isinstance(p, PrimeModulus):
        return p.p
    return PrimeModulus(p).p


class Poly:
    """Immutable polynomial over GF(p), coefficients ascending by power."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=()):
        p = as_prime(p)
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _raw(cls, p: int, coeffs: tuple) -> "Poly":
        # internal fast path: coeffs already reduced and trailing-zero free
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, p) -> "Poly":
        return cls(p, ())

    @classmethod
    def one(cls, p) -> "Poly":
        return cls(p, (1,))

    @classmethod
    def x(cls, p) -> "Poly":
        return cls(p, (0, 1))

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def _check_same_field(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = (cs[i] + c) % p
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly._raw(p, tuple(cs))

    def __neg__(self) -> "Poly":
        p = self.p
        return Poly._raw(p, tuple((p - c) % p for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        if self.is_zero or other.is_zero:
            return Poly._raw(self.p, ())
        p = self.p
        a, b = self.coeffs, other.coeffs
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    cs[i + j] += ai * bj
        return Poly._raw(p, tuple(c % p for c in cs))

    def __divmod__(self, other: "Poly"):
        self._check_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("zero divisor")
        p = self.p
        db = len(other.coeffs) - 1
        if len(self.coeffs) - 1 < db:
            return Poly._raw(p, ()), self
        inv_lead = pow(other.coeffs[-1], p - 2, p)
        rem = list(self.coeffs)
        q = [0] * (len(rem) - db)
        b = other.coeffs
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db]
            if c:
                f = (c * inv_lead) % p
                q[i] = f
                for j, bj in enumerate(b):
                    rem[i + j] = (rem[i + j] - f * bj) % p
        while rem and rem[-1] == 0:
            rem.pop()
        while q and q[-1] == 0:
            q.pop()
        return Poly._raw(p, tuple(q)), Poly._raw(p, tuple(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero or k == 0:
            return self if k == 0 else Poly._raw(self.p, self.coeffs)
        return Poly._raw(self.p, (0,) * k + self.coeffs)

    def scale(self, c: int) -> "Poly":
        """Multiply by the scalar c in GF(p)."""
        p = self.p
        c %= p
        if c == 0:
            return Poly._raw(p, ())
        cs = tuple((c * a) % p for a in self.coeffs)
        return Poly._raw(p, cs)

    def monic(self) -> "Poly":
        """The monic associate (zero stays zero)."""
        if self.is_zero or self.is_monic:
            return self
        p = self.p
        return self.scale(pow(self.coeffs[-1], p - 2, p))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self) -> str:
        return poly_format(self)

    def __repr__(self) -> str:
        return f"Poly({self.p}, {poly_format(self)!r})"


def poly_divmod(a: Poly, b: Poly):
    """Euclidean division: a = q*b + r with deg(r) < deg(b)."""
    return divmod(a, b)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; error if both arguments are zero."""
    a._check_same_field(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_egcd(a: Poly, b: Poly):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    a._check_same_field(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    p = a.p
    r0, r1 = a, b
    s0, s1 = Poly.one(p), Poly.zero(p)
    t0, t1 = Poly.zero(p), Poly.one(p)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading_coefficient
    if lead != 1:
        inv = pow(lead, p - 2, p)
        r0, s0, t0 = r0.scale(inv), s0.scale(inv), t0.scale(inv)
    return r0, s0, t0


def poly_pow_mod(base: Poly, exponent: int, modulus: Poly) -> Poly:
    """base**exponent reduced mod modulus, by left-to-right square and
    multiply."""
    if exponent < 0:
        raise ValueError("negative exponent")
    if exponent == 0:
        return Poly.one(base.p) % modulus
    acc = base % modulus
    result = acc
    for bit in bin(exponent)[3:]:  # the bits after the leading one
        result = (result * result) % modulus
        if bit == "1":
            result = (result * acc) % modulus
    return result


def poly_is_irreducible(a: Poly) -> bool:
    """Ben-Or's test: a of degree d is irreducible iff gcd(X^(p^k) - X, a)
    = 1 for every k <= d/2.  X^(p^k) - X is the product of the monic
    irreducibles of degree dividing k, and a reducible a has an irreducible
    factor of degree <= d/2; the cost is polynomial in d and log p."""
    d = a.degree
    if d < 1:
        raise ValueError("irreducibility is defined for nonconstant polynomials")
    x = Poly.x(a.p)
    power = x
    for _ in range(d // 2):
        power = poly_pow_mod(power, a.p, a)  # X^(p^k) mod a
        r0, r1 = a, power - x
        while not r1.is_zero:
            r0, r1 = r1, r0 % r1
        if r0.degree > 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def irreducible_poly(p: int, degree: int) -> Poly:
    """Smallest (by integer encoding) monic irreducible of the given degree."""
    p = as_prime(p)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for low in range(p**degree):
        cand = poly_from_int(low + p**degree, p)
        if poly_is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


def poly_from_int(n: int, p) -> Poly:
    """Digits of n in base p become the coefficients (n_0 + n_1 X + ...)."""
    p = as_prime(p)
    if n < 0:
        raise ValueError("negative integers have no digit polynomial")
    cs = []
    while n:
        n, r = divmod(n, p)
        cs.append(r)
    return Poly._raw(p, tuple(cs))


def poly_to_int(a: Poly) -> int:
    """Inverse of poly_from_int: evaluate the coefficient digits at p."""
    n = 0
    for c in reversed(a.coeffs):
        if not 0 <= c < a.p:
            raise ValueError("coefficient out of range")
        n = n * a.p + c
    return n


@dataclass(frozen=True)
class LaurentPrefix:
    """First T coefficients (a_1, ..., a_T) of X^-1, ..., X^-T in an expansion."""

    p: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("prefix length must be >= 1")

    def __len__(self) -> int:
        return len(self.coeffs)

    def coeff(self, j: int) -> int:
        """a_j, 1-based."""
        return self.coeffs[j - 1]

    def truncate(self, t: int) -> "LaurentPrefix":
        if not 1 <= t <= len(self.coeffs):
            raise ValueError("bad truncation length")
        return LaurentPrefix(self.p, self.coeffs[:t])


def laurent_coeffs(numerator: Poly, denominator: Poly, t: int) -> tuple:
    """The tuple (a_1, ..., a_T) of the fractional part of numerator/denominator.

    The numerator is reduced mod the denominator, then one long division of
    r * X^T by the denominator yields the T leading expansion coefficients.
    """
    if denominator.is_zero:
        raise ZeroDivisionError("zero divisor")
    if t < 1:
        raise ValueError("prefix length must be >= 1")
    r = numerator % denominator
    if r.is_zero:
        return (0,) * t
    q, _ = divmod(r.shift(t), denominator)
    qc = q.coeffs
    return tuple(qc[t - j] if 0 <= t - j < len(qc) else 0 for j in range(1, t + 1))


def laurent_expand(numerator: Poly, denominator: Poly, t: int) -> LaurentPrefix:
    """Truncated Laurent expansion of the fractional part {numerator/denominator}."""
    return LaurentPrefix(numerator.p, laurent_coeffs(numerator, denominator, t))


def valuation(numerator: Poly, denominator: Poly):
    """deg(numerator) - deg(denominator); NEG_INF for a zero numerator."""
    if denominator.is_zero:
        raise ZeroDivisionError("zero denominator")
    if numerator.is_zero:
        return NEG_INF
    return numerator.degree - denominator.degree


_SUPERFLUOUS = " \t"


def poly_parse(text: str, p) -> Poly:
    """Parse "X^2+X+1" (case-insensitive, optional spaces) or "[1,1,1]" (ascending)."""
    p = as_prime(p)
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial text", 0)
    if stripped.startswith("["):
        return _parse_list_form(text, p)
    return _parse_term_form(text, p)


def _parse_list_form(text: str, p: int) -> Poly:
    start = text.index("[")
    end = text.rfind("]")
    if end < 0:
        raise ParseError("unterminated coefficient list", len(text) - 1)
    body = text[start + 1 : end]
    if text[end + 1 :].strip():
        raise ParseError("trailing text after coefficient list", end + 1)
    coeffs = []
    pos = start + 1
    if body.strip():
        for item in body.split(","):
            s = item.strip()
            at = pos + item.index(s) if s else pos
            if not s.isdigit():
                raise ParseError(f"bad coefficient {s!r}", at)
            c = int(s)
            if c >= p:
                raise ParseError(f"coefficient {c} out of range for p={p}", at)
            coeffs.append(c)
            pos += len(item) + 1
    return Poly(p, coeffs)


def _parse_term_form(text: str, p: int) -> Poly:
    coeffs: dict[int, int] = {}
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos] in _SUPERFLUOUS:
            pos += 1
        if pos >= n:
            break
        term_start = pos
        coeff_digits = ""
        while pos < n and text[pos].isdigit():
            coeff_digits += text[pos]
            pos += 1
        while pos < n and text[pos] in _SUPERFLUOUS:
            pos += 1
        exponent = 0
        has_x = pos < n and text[pos] in "xX"
        if has_x:
            pos += 1
            exponent = 1
            if pos < n and text[pos] == "^":
                pos += 1
                exp_digits = ""
                while pos < n and text[pos].isdigit():
                    exp_digits += text[pos]
                    pos += 1
                if not exp_digits:
                    raise ParseError("missing exponent after '^'", pos)
                exponent = int(exp_digits)
        if not coeff_digits and not has_x:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        coeff = int(coeff_digits) if coeff_digits else 1
        if coeff >= p:
            raise ParseError(f"coefficient {coeff} out of range for p={p}", term_start)
        coeffs[exponent] = (coeffs.get(exponent, 0) + coeff) % p
        while pos < n and text[pos] in _SUPERFLUOUS:
            pos += 1
        if pos < n:
            if text[pos] != "+":
                raise ParseError(f"expected '+', found {text[pos]!r}", pos)
            pos += 1
            if pos >= n or text[pos:].strip() == "":
                raise ParseError("dangling '+'", pos - 1)
    if not coeffs:
        raise ParseError("empty polynomial text", 0)
    top = max(coeffs)
    return Poly(p, [coeffs.get(i, 0) for i in range(top + 1)])


def poly_format(a: Poly) -> str:
    """Canonical print: descending powers, zero terms omitted, "0" for zero."""
    if a.is_zero:
        return "0"
    parts = []
    for i in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}X" if i == 1 else f"{head}X^{i}")
    return "+".join(parts)


@functools.total_ordering
class BasePRational:
    """Exact coordinate numerator / p^L in [0, 1).

    The exponent L is retained as constructed (it records the natural digit
    resolution of the coordinate); equality and ordering compare values,
    between two of them as the integers num * q^K and num' * p^L.  The hash
    is the Fraction hash, so equal values hash alike as Fraction and int.
    """

    __slots__ = ("p", "num", "L")

    def __init__(self, p, num: int, exponent: int):
        p = as_prime(p)
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if not 0 <= num < p**exponent:
            raise ValueError(f"numerator {num} outside [0, {p}^{exponent})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "L", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("BasePRational is immutable")

    @classmethod
    def zero(cls, p) -> "BasePRational":
        return cls(p, 0, 0)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p**self.L)

    def digit(self, j: int) -> int:
        """The j-th digit after the radix point (1-based); 0 beyond L."""
        if j < 1:
            raise ValueError("digit index is 1-based")
        if j > self.L:
            return 0
        return (self.num // self.p ** (self.L - j)) % self.p

    def digits(self) -> tuple:
        """All L digits, most significant first."""
        return tuple(self.digit(j) for j in range(1, self.L + 1))

    def token(self) -> str:
        """File token: numerator slash the evaluated denominator p^L."""
        return f"{self.num}/{self.p ** self.L}"

    def __float__(self) -> float:
        return self.num / self.p**self.L

    def __eq__(self, other):
        if isinstance(other, BasePRational):
            return self.num * other.p**other.L == other.num * self.p**self.L
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, BasePRational):
            return self.num * other.p**other.L < other.num * self.p**self.L
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() < other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self):
        return f"BasePRational({self.token()})"


@dataclass(frozen=True)
class ResidueClass:
    """The set of n with n(X) = residue (mod modulus); modulus monic."""

    modulus: Poly
    residue: Poly

    def __post_init__(self):
        if not self.modulus.is_monic:
            raise ValueError("modulus must be monic")
        if self.residue.p != self.modulus.p:
            raise ValueError("mixed moduli")
        if not self.residue.degree < self.modulus.degree:
            raise ValueError("residue degree must be below modulus degree")

    @property
    def p(self) -> int:
        return self.modulus.p

    def contains(self, n) -> bool:
        """Membership of an integer (via its digit polynomial) or a Poly."""
        a = poly_from_int(n, self.modulus.p) if isinstance(n, int) else n
        return ((a - self.residue) % self.modulus).is_zero

    def measure(self) -> Fraction:
        """Natural density p^(-deg modulus) of the class."""
        return Fraction(1, self.modulus.p**self.modulus.degree)
