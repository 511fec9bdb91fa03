"""Exact arithmetic over GF(p)[X] and truncated formal Laurent expansions.

A polynomial c_0 + c_1*X + ... + c_d*X^d is stored as the tuple
(c_0, ..., c_d) of residues in {0, ..., p-1} with no trailing zero
entries; the zero polynomial is the empty tuple and its degree is the
sentinel NEG_INF (never the ordinary integer -1).  All values are
immutable and all operations are exact.  One long-division kernel on
coefficient tuples serves divmod, % and the Laurent digits: it subtracts
only the divisor's nonzero low terms, reduces mod p only the coefficient
each step cancels, and reduces the remainder once at the end.

This module also holds the two small value types shared by the point
constructions: BasePRational, an exact coordinate a/p^L in [0,1) that is
a Fraction keeping p and its digit count L, so every layer from point
generation to the discrepancy oracle reads the one number type; and
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


# the first 13 primes as strong-pseudoprime bases decide primality below
# _PRIME_LIMIT (Sorenson & Webster, Math. Comp. 86 (2017))
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; p >= _PRIME_LIMIT is out of range."""
    if p >= _PRIME_LIMIT:
        raise ValueError(f"modulus {p} is out of range (>= {_PRIME_LIMIT})")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    n = p - 1
    s = (n & -n).bit_length() - 1  # n = d * 2^s with d odd; a^(d * 2^j) = a^(n >> (s - j))
    return all(
        pow(a, n >> s, p) == 1 or any(pow(a, n >> k, p) == n for k in range(1, s + 1))
        for a in _PRIME_BASES
    )


def as_prime(p) -> int:
    """p itself when it is a prime int; raises ValueError otherwise."""
    if isinstance(p, int) and _is_prime(p):
        return p
    raise ValueError(f"modulus {p!r} is not prime")


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
        q, r = _long_division(self.coeffs, other.coeffs, self.p, True)
        return Poly._raw(self.p, q), Poly._raw(self.p, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly._raw(self.p, _long_division(self.coeffs, other.coeffs, self.p, False)[1])

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


def _long_division(a: tuple, b: tuple, p: int, quotient: bool):
    """The one long division over GF(p): (q, r) with a = q*b + r, deg r < deg b,
    r reduced and trailing-zero free, q None unless asked for; a may hold any
    integers.  Each step cancels the top term by construction, so only b's
    nonzero low terms are subtracted and only that term is reduced mod p."""
    if not b:
        raise ZeroDivisionError("zero divisor")
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
    low = [(j, c) for j, c in enumerate(b[:-1]) if c]
    rem = list(a)
    q = [0] * (len(a) - db) if quotient else None
    for i in range(len(a) - db - 1, -1, -1):
        f = rem[i + db] % p
        if f:
            f = f * inv % p
            if quotient:
                q[i] = f
            for j, c in low:
                rem[i + j] -= f * c
    rem = [x % p for x in rem[:db]]
    while rem and rem[-1] == 0:
        rem.pop()
    return (tuple(q) if quotient else None), tuple(rem)


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
        if poly_gcd(a, power - x).degree > 0:
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


def laurent_coeffs(numerator: Poly, denominator: Poly, t: int) -> tuple:
    """The tuple (a_1, ..., a_T) of the fractional part of numerator/denominator,
    read off one long division: the quotient of X^T * numerator by the
    denominator ends in the T terms a_1 X^(T-1) + ... + a_T."""
    if t < 1:
        raise ValueError("prefix length must be >= 1")
    if not isinstance(numerator, Poly):
        raise TypeError(f"expected Poly, got {type(numerator).__name__}")
    numerator._check_same_field(denominator)
    q = _long_division((0,) * t + numerator.coeffs, denominator.coeffs, numerator.p, True)[0]
    return (q + (0,) * t)[t - 1 :: -1]


def valuation(numerator: Poly, denominator: Poly):
    """deg(numerator) - deg(denominator); NEG_INF for a zero numerator."""
    if denominator.is_zero:
        raise ZeroDivisionError("zero denominator")
    if numerator.is_zero:
        return NEG_INF
    return numerator.degree - denominator.degree


_SUPERFLUOUS = " \t"
_DIGITS = "0123456789"  # str.isdigit also accepts digits int() rejects, such as "²"
# the largest exponent poly_parse reads: the term form builds a list this long
_MAX_EXPONENT = 2**16


def poly_parse(text: str, p) -> Poly:
    """Parse "X^2+X+1" (case-insensitive, optional spaces) or "[1,1,1]" (ascending)."""
    p = as_prime(p)
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial text", 0)
    if stripped.startswith("["):
        return _parse_list_form(text, p)
    return _parse_term_form(text, p)


def _parse_coefficient(digits: str, p: int, at: int) -> int:
    """The ASCII decimal digits as a coefficient below p, rejecting one too
    long to be below p before int() converts it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(p)):
        raise ParseError(f"coefficient of {len(digits)} digits out of range for p={p}", at)
    c = int(digits)
    if c >= p:
        raise ParseError(f"coefficient {c} out of range for p={p}", at)
    return c


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
            if not s or s.strip(_DIGITS):
                raise ParseError(f"bad coefficient {s!r}", at)
            coeffs.append(_parse_coefficient(s, p, at))
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
        while pos < n and text[pos] in _DIGITS:
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
                while pos < n and text[pos] in _DIGITS:
                    exp_digits += text[pos]
                    pos += 1
                if not exp_digits:
                    raise ParseError("missing exponent after '^'", pos)
                exp_digits = exp_digits.lstrip("0") or "0"
                if len(exp_digits) > len(str(_MAX_EXPONENT)) or int(exp_digits) > _MAX_EXPONENT:
                    raise ParseError(f"exponent above {_MAX_EXPONENT}", term_start)
                exponent = int(exp_digits)
        if not coeff_digits and not has_x:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        coeff = _parse_coefficient(coeff_digits, p, term_start) if coeff_digits else 1
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


class BasePRational(Fraction):
    """Exact coordinate num / p^L in [0, 1): a Fraction that keeps the prime
    p and the digit count L it was built with.

    L records the natural digit resolution of the coordinate, so num need
    not be coprime to p; arithmetic, comparison and hashing are Fraction's.
    """

    __slots__ = ("p", "num", "L")

    def __new__(cls, p, num: int, exponent: int):
        p = as_prime(p)
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if not 0 <= num < p**exponent:
            raise ValueError(f"numerator {num} outside [0, {p}^{exponent})")
        self = super().__new__(cls, num, p**exponent)
        self.p, self.num, self.L = p, num, exponent
        return self

    def digit(self, j: int) -> int:
        """The j-th digit after the radix point (1-based); 0 beyond L."""
        if j < 1:
            raise ValueError("digit index is 1-based")
        if j > self.L:
            return 0
        return (self.num // self.p ** (self.L - j)) % self.p

    def token(self) -> str:
        """File token: numerator slash the evaluated denominator p^L."""
        return f"{self.num}/{self.p ** self.L}"

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
        return a % self.modulus == self.residue

    def measure(self) -> Fraction:
        """Natural density p^(-deg modulus) of the class."""
        return Fraction(1, self.modulus.p**self.modulus.degree)
