"""Exact coefficient rings: ZZ, QQ, ZZ/mZ for squarefree m (the prime
field F_p is ZZ/pZ, tagged Fp(p)), and univariate quotients k[t]/(f) over
QQ or F_p.

Every ring value is kept in a canonical form so that equality is plain
syntactic equality: fractions are reduced with positive denominator,
residues live in [0, m), and quotient-ring values are reduced modulo the
defining polynomial.  Payloads are immutable.  Ring objects are immutable
as values (equality and hash depend on the base and modulus alone), but a
finite field F_p[t]/(f) of order at most ZECH_MAX_ORDER caches Zech
logarithm tables once is_field() first returns True, and from then on
does its arithmetic by table lookup; its payloads stay the same canonical
coefficient tuples.

BaseRing holds the arithmetic of Python-number payloads once.  ZZ inherits
all of it; QQ all but zero, one and from_int, which give Fractions; ZZ/mZ
all but add, sub, mul, neg and from_int, which reduce mod m.  ZZ takes QQ
as its scalar field.  k[t]/(f) overrides every default.

This module reads no polynomial text: coerce takes numbers and payloads,
and ring_from_tag reads the modulus of a tag with poly.parse_poly, the one
reader of polynomial text, under its work meter.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Any, Tuple


class NotAUnit(ArithmeticError):
    """Raised when inverting a non-unit; the message names the element."""


class SizeGuardExceeded(RuntimeError):
    """A job refused: an estimate of its size made before it runs, or the
    work it has measured as it runs, is above a fixed limit.  The message
    names each measured quantity."""

    def __init__(self, message: str, **measured):
        super().__init__(message + "; measured " +
                         ", ".join(f"{k}={v}" for k, v in sorted(measured.items())))
        self.measured = measured


# Miller-Rabin with the prime bases 2..41 is exact below PRIME_TEST_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from n >= PRIME_TEST_LIMIT,
    which the bases do not decide."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large for the primality test")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list:
    return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]


class BaseRing:
    """Common interface.  Payloads are raw Python values, see subclasses.
    The defaults serve a ring whose payloads are Python numbers in
    canonical form: the operators for add, sub, mul and neg, 0 and 1 for
    zero and one, n itself for from_int, `not a` for is_zero, the ring as
    its own scalar field with basis (one(),), equality by type.  inv,
    characteristic and tag have no default."""

    # -- payload arithmetic -------------------------------------------------
    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        raise NotImplementedError

    def power(self, a, e: int):
        """a^e by square-and-multiply from the top bit, so e.bit_length() - 1
        squarings; a negative e is a power of inv(a)."""
        if e < 0:
            return self.power(self.inv(a), -e)
        if not e:
            return self.one()
        out = a
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        try:
            self.inv(a)
            return True
        except NotAUnit:
            return False

    # -- structure ----------------------------------------------------------
    def characteristic(self) -> int:
        raise NotImplementedError

    def is_field(self) -> bool:
        return False

    def is_product_of_fields(self) -> bool:
        """Is the ring a finite product of fields, a field included?  Then
        reducing a polynomial modulo others whose leading coefficients are
        units is the reduction in every factor at once."""
        return self.is_field()

    def tag(self) -> str:
        raise NotImplementedError

    # Base field used for linear algebra over this ring (QQ or F_p; ZZ/mZ
    # is its own), together with a basis of the ring over that field.
    def scalar_field(self) -> "BaseRing":
        return self

    def field_basis(self) -> Tuple[Any, ...]:
        return (self.one(),)

    def field_coords(self, a) -> Tuple[Any, ...]:
        """Coordinates of a payload with respect to field_basis()."""
        return (a,)

    def scale_by_scalar(self, a, c):
        """Multiply a payload by a scalar of scalar_field()."""
        return self.mul(a, c)

    def coerce(self, x):
        """An int or a Fraction as a payload, num * den^-1: a denominator
        that is not a unit raises NotAUnit.  Text is read by
        poly.parse_poly."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.mul(self.from_int(x.numerator),
                            self.inv(self.from_int(x.denominator)))
        raise TypeError(f"cannot coerce {x!r} into {self.tag()}")

    def primitive(self, payloads: list) -> Tuple["BaseRing", list]:
        """A ring, and the payloads there of a nonzero multiple of the
        payload vector, for work that needs the vector only up to such a
        multiple: the vector itself in this ring.  QQ gives its
        integer-primitive multiple over ZZ."""
        return self, payloads

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return self.tag()


class IntegerRing(BaseRing):
    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit in ZZ")

    def characteristic(self):
        return 0

    def tag(self):
        return "ZZ"

    def scalar_field(self):
        return QQ

    def field_coords(self, a):
        return (Fraction(a),)

    def scale_by_scalar(self, a, c):
        v = Fraction(a) * c
        if v.denominator != 1:
            raise ValueError("non-integral scalar multiple in ZZ")
        return v.numerator


_FRACTION_ONE = Fraction(1)


class RationalField(BaseRing):
    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit in QQ")
        return _FRACTION_ONE / a

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        return super().coerce(x)

    def primitive(self, payloads):
        """Over ZZ, the positive multiple with content 1: times the lcm of
        the denominators, over the gcd of the numerators.  An all-zero
        vector stays zero."""
        den = math.lcm(*(a.denominator for a in payloads))
        ints = [a.numerator * (den // a.denominator) for a in payloads]
        num = math.gcd(*ints)
        return ZZ, [a // num for a in ints] if num else ints

    def characteristic(self):
        return 0

    def is_field(self):
        return True

    def tag(self):
        return "QQ"


class ModularIntegers(BaseRing):
    """ZZ/mZ for m a product of distinct primes: by the Chinese remainder
    theorem, the product of the fields F_p for the primes p dividing m, and
    the field F_p itself when m = p.  Payloads are ints in [0, m).  A
    residue is a unit exactly when it is nonzero mod every p, and inv raises
    NotAUnit otherwise."""

    def __init__(self, primes):
        primes = sorted(set(primes))
        if not primes:
            raise ValueError("ZZ/mZ needs at least one prime")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.primes = tuple(primes)
        self.m = math.prod(primes)

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            raise NotAUnit(f"{a % self.m} is not a unit in {self.tag()}") from None

    def from_int(self, n):
        return n % self.m

    def characteristic(self):
        return self.m

    def is_field(self):
        return len(self.primes) == 1

    def is_product_of_fields(self):
        return True

    def tag(self):
        return f"Fp({self.m})" if self.is_field() else f"ZZ/({self.m})"

    def __eq__(self, other):
        return isinstance(other, ModularIntegers) and other.m == self.m

    def __hash__(self):
        return hash(("ZZ/m", self.m))


def _poly_trim(cs: tuple) -> tuple:
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _poly_divmod(num, den, field: BaseRing):
    """Division of coefficient tuples (low-to-high) over a field."""
    num = list(num)
    q = [field.zero()] * max(0, len(num) - len(den) + 1)
    inv_lead = field.inv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = field.mul(num[i + len(den) - 1], inv_lead)
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] = field.sub(num[i + j], field.mul(c, d))
    return tuple(q), _poly_trim(tuple(num))


class QuotientRing(BaseRing):
    """k[t]/(f) for k = QQ or Fp; payloads are coefficient tuples of deg < deg f."""

    def __init__(self, base: BaseRing, modulus: Tuple[Any, ...]):
        if not (isinstance(base, RationalField)
                or isinstance(base, ModularIntegers) and base.is_field()):
            raise ValueError("quotient base must be QQ or a prime field")
        modulus = _poly_trim(tuple(base.coerce(c) for c in modulus))
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if not base.is_unit(modulus[-1]):
            raise ValueError("modulus must have unit leading coefficient")
        # normalize to a monic modulus; zeros (false payloads in QQ and
        # Fp) are kept as they are, so a sparse modulus costs little
        il = base.inv(modulus[-1])
        self.base = base
        self.modulus = tuple(c and base.mul(c, il) for c in modulus)
        self.deg = len(self.modulus) - 1
        self._is_field = None  # memoized verdict of is_field
        self._tables = None  # (log, exp, zech) of a small finite field
        # t^(deg + k) mod f for k < deg - 1, the high half of a product,
        # as its nonzero coefficients (j, c_j); t^(deg + k + 1) is t times
        # t^(deg + k) with its top coefficient folded back by t^deg = -f_low
        zero = base.zero()
        top_row = [base.neg(c) if c else zero for c in self.modulus[:-1]]
        row = top_row
        self._fold = []
        for _ in range(self.deg - 1):
            self._fold.append([(j, c) for j, c in enumerate(row) if c])
            top, row = row[-1], [zero] + row[:-1]
            if top:
                row = [base.add(x, base.mul(top, y)) for x, y in zip(row, top_row)]

    def _reduce(self, cs) -> tuple:
        cs = _poly_trim(tuple(cs))
        if len(cs) <= self.deg:
            return cs + (self.base.zero(),) * (self.deg - len(cs))
        _, r = _poly_divmod(cs, self.modulus, self.base)
        return r + (self.base.zero(),) * (self.deg - len(r))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b, strict=True))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b, strict=True))

    def mul(self, a, b):
        # schoolbook over the nonzero coefficients, then the coefficients
        # of t^deg and above fold back through the rows of self._fold
        add, mul = self.base.add, self.base.mul
        out = [self.base.zero()] * (2 * self.deg - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] = add(out[i + j], mul(x, y))
        low = out[:self.deg]
        for c, row in zip(out[self.deg:], self._fold):
            if c:
                for j, r in row:
                    low[j] = add(low[j], mul(c, r))
        return tuple(low)

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def inv(self, a):
        # extended Euclid in k[t] against the modulus
        r0, r1 = self.modulus, _poly_trim(tuple(a))
        if not r1:
            raise NotAUnit(f"0 is not a unit in {self.tag()}")
        s0, s1 = (), (self.base.one(),)
        while r1:
            q, r = _poly_divmod(r0, r1, self.base)
            s = self._poly_sub(s0, self._poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s
        if len(r0) != 1:
            raise NotAUnit(f"{self.fmt(a)} is not a unit in {self.tag()}")
        c = self.base.inv(r0[0])
        return self._reduce(tuple(self.base.mul(c, x) for x in s0))

    def _poly_mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.base.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.base.add(out[i + j], self.base.mul(x, y))
        return _poly_trim(tuple(out))

    def _poly_sub(self, a, b):
        n = max(len(a), len(b))
        z = self.base.zero()
        a = a + (z,) * (n - len(a))
        b = b + (z,) * (n - len(b))
        return _poly_trim(tuple(self.base.sub(x, y) for x, y in zip(a, b)))

    def zero(self):
        return (self.base.zero(),) * self.deg

    def is_zero(self, a):
        return not any(a)

    def one(self):
        return (self.base.one(),) + (self.base.zero(),) * (self.deg - 1)

    def gen(self):
        """The class of t."""
        if self.deg == 1:
            return self._reduce((self.base.zero(), self.base.one()))
        out = [self.base.zero()] * self.deg
        out[1] = self.base.one()
        return tuple(out)

    def from_int(self, n):
        return (self.base.from_int(n),) + (self.base.zero(),) * (self.deg - 1)

    def coerce(self, x):
        if isinstance(x, tuple):
            return self._reduce(tuple(self.base.coerce(c) for c in x))
        return super().coerce(x)

    def characteristic(self):
        return self.base.characteristic()

    def is_field(self):
        if self._is_field is None:
            # the verdict and the tables are computed by the schoolbook
            # arithmetic below, which the table-driven one then replaces
            self._is_field = _modulus_irreducible(self)
            if (self._is_field and isinstance(self.base, ModularIntegers)
                    and self.base.m ** self.deg <= ZECH_MAX_ORDER):
                self._tables = _zech_tables(self)
                vars(self).update(_zech_arithmetic(self, *self._tables))
        return self._is_field

    def tag(self):
        return f"{self.base.tag()}[t]/({_fmt_unipoly(self.base, self.modulus)})"

    def scalar_field(self):
        return self.base

    def field_basis(self):
        out = []
        for i in range(self.deg):
            cs = [self.base.zero()] * self.deg
            cs[i] = self.base.one()
            out.append(tuple(cs))
        return tuple(out)

    def field_coords(self, a):
        return tuple(a)

    def scale_by_scalar(self, a, c):
        return tuple(self.base.mul(x, c) for x in a)

    def fmt(self, a):
        return _fmt_unipoly(self.base, _poly_trim(tuple(a))) or "0"

    def __eq__(self, other):
        return (isinstance(other, QuotientRing) and other.base == self.base
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("Quot", self.base, self.modulus))


def _rabin_irreducible(ring: "QuotientRing") -> bool:
    """Rabin's test for the modulus f of degree n over F_p: f is irreducible
    iff t^(p^n) = t mod f and gcd(f, t^(p^(n/q)) - t) = 1 for every prime q
    dividing n.  Powers of t are taken in the ring, that is modulo f."""
    base, p, n = ring.base, ring.characteristic(), ring.deg
    t = ring.gen()
    frobenius = [t]  # frobenius[i] = t^(p^i) mod f
    for _ in range(n):
        frobenius.append(ring.power(frobenius[-1], p))
    if frobenius[n] != t:
        return False
    for q in _prime_divisors(n):
        a, b = ring.modulus, _poly_trim(ring.sub(frobenius[n // q], t))
        while b:
            a, b = b, _poly_divmod(a, b, base)[1]
        if len(a) > 1:
            return False
    return True


def _modulus_irreducible(ring: "QuotientRing") -> bool:
    base, modulus = ring.base, ring.modulus
    if ring.deg == 1:
        return True
    if isinstance(base, ModularIntegers):
        return _rabin_irreducible(ring)
    # QQ: defer to sympy for irreducibility of the modulus
    import sympy

    t = sympy.Symbol("t")
    f = sum(sympy.Rational(c) * t ** i for i, c in enumerate(modulus))
    return sympy.Poly(f, t, domain="QQ").is_irreducible


# Largest field order q = p^deg that gets Zech tables.  Building them costs
# O(q * deg) and they hold q payloads: for F_(2^14), 0.16 s and 4.5 MB at
# peak on a 2-vCPU Xeon, the time of about 2k schoolbook multiplications in
# that field, fewer than a small image closure such as sum-of-powers (2, 2)
# at rank 3 performs (3.6k).  At 2^16 it would be 0.65-0.8 s and 18 MB.
ZECH_MAX_ORDER = 1 << 14


def _zech_tables(ring: "QuotientRing") -> tuple:
    """Tables of the finite field ring = F_p[t]/(f) of order q, for a
    generator g of its unit group, of order n = q - 1:

    - log maps each canonical payload to its exponent k in [0, n); zero,
      which is no power of g, maps to Z = 2n;
    - exp[k] = g^(k mod n) for 0 <= k < 2n and exp[k] = 0 for 2n <= k <= 4n,
      so exp[log a + log b] = a*b with no reduction and no zero test;
    - zech[k] = log(1 + g^k) for -2n <= k < 2n (Python negative indexing),
      which is Z where 1 + g^k = 0, so a + b = exp[log a + zech[log b - log a]]
      for nonzero a and b.

    g is the first monic polynomial in t, by degree, whose power g^(n/r) is
    not 1 for each prime r dividing n; every element of F_q is a monic
    polynomial of degree at most deg reduced mod f, so one is found.  The
    order test runs on the ring's schoolbook arithmetic; the powers of g are
    then built by Horner's rule, O(deg * deg g) per power."""
    p, d = ring.characteristic(), ring.deg
    n = p ** d - 1
    one, low = ring.one(), ring.modulus[:-1]
    tests = [n // r for r in _prime_divisors(n)]

    def times(x, g_low):
        # x * (t^e + g_low[e-1] t^(e-1) + ... + g_low[0]) by Horner's rule:
        # each step is out * t + c * x, where t^deg = -low(t) mod f
        out = x
        for c in reversed(g_low):
            top = out[-1]
            out = tuple((u - top * m + c * v) % p
                        for u, m, v in zip((0,) + out, low, x))
        return out

    for g_low in itertools.chain.from_iterable(
            itertools.product(range(p), repeat=e) for e in range(1, d + 1)):
        g = times(one, g_low)
        # 0 passes the order test too, but generates nothing
        if any(g) and all(ring.power(g, k) != one for k in tests):
            break
    exp = [one]
    for _ in range(n - 1):
        exp.append(times(exp[-1], g_low))
    log = {x: k for k, x in enumerate(exp)}
    zero = ring.zero()
    Z = log[zero] = 2 * n
    zech = [log.get(((x[0] + 1) % p,) + x[1:], Z) for x in exp] * 2
    exp += exp + [zero] * (2 * n + 1)
    return log, exp, zech


def _zech_arithmetic(ring: "QuotientRing", log: dict, exp: list, zech: list) -> dict:
    """add, sub, mul, neg, inv and power of the finite field ring by lookups
    in its Zech tables (see _zech_tables).  Every operand is looked up in
    log, so a payload that is not canonical raises KeyError."""
    Z = log[ring.zero()]
    n = Z // 2
    half = log[ring.neg(ring.one())]  # log of -1: 0 in characteristic 2

    def add(a, b):
        la, lb = log[a], log[b]
        if la == Z:
            return exp[lb]
        if lb == Z:
            return exp[la]
        return exp[la + zech[lb - la]]

    def sub(a, b):
        la, lb = log[a], log[b]
        if lb == Z:
            return exp[la]
        lb += half
        if la == Z:
            return exp[lb]
        return exp[la + zech[lb - la]]

    def mul(a, b):
        return exp[log[a] + log[b]]

    def neg(a):
        return exp[log[a] + half]

    def inv(a):
        la = log[a]
        if la == Z:
            raise NotAUnit(f"0 is not a unit in {ring.tag()}")
        return exp[n - la]

    def power(a, e: int):
        la = log[a]
        if la == Z:
            if e < 0:
                raise NotAUnit(f"0 is not a unit in {ring.tag()}")
            return exp[0 if e == 0 else Z]
        return exp[la * e % n]

    return {"add": add, "sub": sub, "mul": mul, "neg": neg, "inv": inv,
            "power": power}


def _fmt_unipoly(base: BaseRing, cs: tuple) -> str:
    parts = []
    for i, c in enumerate(cs):
        if base.is_zero(c):
            continue
        if i == 0:
            parts.append(base.fmt(c))
        else:
            tp = "t" if i == 1 else f"t^{i}"
            if c == base.one():
                parts.append(tp)
            else:
                parts.append(f"{base.fmt(c)}*{tp}")
    return " + ".join(parts)


ZZ = IntegerRing()
QQ = RationalField()


def Fp(p: int) -> ModularIntegers:
    """The prime field F_p = ZZ/pZ; ValueError when p is not prime."""
    return ModularIntegers((p,))


def fraction_field_reduction(p: int) -> BaseRing:
    """The residue field of ZZ at (p): QQ for p = 0, Fp otherwise."""
    return QQ if p == 0 else Fp(p)


_TAG_RE = re.compile(
    r"^(ZZ|QQ|Fp\((\d+)\))(?:\[t\]/\(([-+*/^0-9t]+)\))?$")

# a k[t]/(f) ring tag whose modulus has degree d above this is refused before
# is_field runs Rabin's test on it (0.4 s at degree 64 over F_5, 18 s at 200),
# and so is one whose d^3 * bit_length(p), the test's cost, is above its
# value over F_31 at this degree (1.1 s; 2.2 s over F_65537)
MODULUS_DEGREE_LIMIT = 64

# a modulus is refused too when its degree d and coefficient size b, log2 of
# its largest numerator or denominator rounded up, have d^2 * b above this:
# over QQ, laying out the fold of t^d, ..., t^(2d-2) makes coefficients of
# about d * b bits, and in process on a 2-vCPU Xeon VM it took 0.4-0.6 s at
# d^2 * b = 2^19 for every d from 1 to 64 with a dense non-monic modulus,
# 1.0-1.7 s at 2^20 and 15 s at d = 64, b = 1,000
MODULUS_BITS_LIMIT = 1 << 19


def ring_from_tag(tag: str) -> BaseRing:
    """Parse a textual ring tag like 'QQ', 'Fp(7)', 'QQ[t]/(t^2)'.

    The modulus of a k[t]/(f) tag is read by poly.parse_poly over k in the
    one variable t, and its degree and coefficient size are checked against
    MODULUS_DEGREE_LIMIT and MODULUS_BITS_LIMIT before its coefficients are
    laid out, so a modulus of huge degree or coefficients is refused
    (SizeGuardExceeded)."""
    from .poly import VarSet, _bits, parse_poly  # poly imports this module
    tag = tag.strip().replace(" ", "")
    m = _TAG_RE.match(tag)
    if m is None:
        raise ValueError(f"unknown ring tag {tag!r}")
    if m.group(2) is not None:
        base: BaseRing = Fp(int(m.group(2)))
    elif m.group(1) == "ZZ":
        base = ZZ
    else:
        base = QQ
    if m.group(3) is None:
        return base
    if base is ZZ:
        raise ValueError("quotient rings over ZZ are not supported")
    # tags print a modulus as "-7 + -5*t + t^3", and parse_poly reads no "+-"
    terms = parse_poly(m.group(3).replace("+-", "-"), base, VarSet(("t",))).terms
    degree = max((k for (k,) in terms), default=0)
    bits = base.characteristic().bit_length()
    if degree > MODULUS_DEGREE_LIMIT or degree ** 3 * bits > MODULUS_DEGREE_LIMIT ** 3 * 5:
        raise SizeGuardExceeded("ring modulus degree exceeds the size guard",
                                degree=degree, limit=MODULUS_DEGREE_LIMIT, p_bits=bits)
    size = max((_bits(base, c) for c in terms.values()), default=0)
    if degree ** 2 * size > MODULUS_BITS_LIMIT:
        raise SizeGuardExceeded("ring modulus coefficients exceed the size guard",
                                coefficient_bits=size, degree=degree,
                                limit=MODULUS_BITS_LIMIT)
    modulus = [base.zero()] * (degree + 1)
    for (k,), c in terms.items():
        modulus[k] = c
    return QuotientRing(base, tuple(modulus))
