"""Exact multivariate polynomial arithmetic over a prime field F_p.

Coefficients are plain int residues in [0, p); the modulus and the monomial
order live on the RingDescriptor. Polynomials are immutable, canonically
sorted term sequences, so equality and hashing are structural.

Monomials are exponent tuples wherever they leave the kernel (Polynomial.terms,
lead_monomial). Inside the kernel -- Polynomial products and canonical sorting
here; reduction, Buchberger, exact division and monomial pruning in groebner
-- they are packed into one int per monomial (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007), using the RingDescriptor's _Packing. Conversion happens only at that
boundary: pack() on the way in, unpack() on the way out; a Polynomial the
kernel made keeps its packed terms, so it never crosses inward again. mono_mul, on
tuples, is not part of the kernel: it serves the linear-algebra membership
oracle, which checks the kernel independently.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from operator import mul

from .errors import ExponentOverflow, RingMismatch

# Exponents are checked against this instead of wrapping (bracket powers reach q = p^e).
EXPONENT_LIMIT = 2**31 - 1
# A packed exponent field: 31 bits hold EXPONENT_LIMIT, the top bit is the guard.
# 32 bits keep the fields byte-aligned, so unpacking is one struct call.
_FIELD_BITS = 32
assert EXPONENT_LIMIT.bit_length() == _FIELD_BITS - 1

ORDER_TAGS = ("lex", "grevlex", "block")


def is_prime(n: int) -> bool:
    """Deterministic trial division by 2 and the odd numbers; moduli are at most 2^31."""
    return n == 2 or n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _grevlex_forms(nvars, start, stop):
    """Linear forms whose lexicographic comparison is grevlex on [start, stop):
    the degree, then degree minus each exponent in reverse variable order
    (the negated exponents, kept non-negative)."""
    block = [1 if start <= i < stop else 0 for i in range(nvars)]
    forms = [tuple(block)]
    for k in range(stop - 1, start, -1):
        forms.append(tuple(0 if i == k else w for i, w in enumerate(block)))
    return forms


class _Packing:
    """Exponent vectors packed into ints, so that for monomials a, b:

      pack(a) + pack(b) == pack(a*b)          (multiplication is an int add)
      pack(a) < pack(b)  iff key(a) < key(b)   (the ring order is int order)
      a | b  iff  not (pack(b) - pack(a)) & guards

    The low nvars fields of _FIELD_BITS hold the exponents, first variable most
    significant, each with a guard bit above EXPONENT_LIMIT. Above them sit the
    order's linear forms (none for lex, whose exponent fields already compare
    lexicographically), each field just wide enough for its largest value when
    every exponent is at most EXPONENT_LIMIT. Sums of two packed monomials never
    carry between exponent fields; an exponent past EXPONENT_LIMIT sets its
    guard bit, which check() turns into ExponentOverflow.
    """

    __slots__ = ("units", "guards", "_mask", "_struct", "_nbytes")

    def __init__(self, nvars, forms):
        shift = _FIELD_BITS * nvars
        units = [1 << (_FIELD_BITS * (nvars - 1 - i)) for i in range(nvars)]
        for form in reversed(forms):
            for i, w in enumerate(form):
                units[i] += w << shift
            shift += (sum(form) * EXPONENT_LIMIT).bit_length()
        self.units = tuple(units)
        self.guards = sum(1 << (_FIELD_BITS * (k + 1) - 1) for k in range(nvars))
        self._nbytes = _FIELD_BITS // 8 * nvars
        self._mask = (1 << (8 * self._nbytes)) - 1
        self._struct = struct.Struct(f">{nvars}I")

    def pack(self, m):
        return sum(map(mul, m, self.units))

    def unpack(self, packed):
        return self._struct.unpack((packed & self._mask).to_bytes(self._nbytes, "big"))

    def lcm(self, a, b):
        """lcm of two monomials packed in lex order, whose ints are the exponent
        fields alone. Per field, (a | guard) - b keeps the guard bit exactly
        when a's exponent is the larger; the guard minus its shift down masks
        that field of a, and b fills the rest."""
        t = ((a | self.guards) - b) & self.guards
        return b ^ ((a ^ b) & (t - (t >> (_FIELD_BITS - 1))))

    def check(self, packed):
        """Raise if an exponent of packed left the limit (its guard bit is set)."""
        if packed & self.guards:
            raise ExponentOverflow(f"exponent beyond {EXPONENT_LIMIT} in reduction")


@functools.lru_cache(maxsize=64)
def _packing_for(nvars, order, block_sizes):
    if order == "lex":
        forms = []
    elif order == "grevlex":
        forms = _grevlex_forms(nvars, 0, nvars)
    else:
        forms, start = [], 0
        for size in block_sizes:
            forms += _grevlex_forms(nvars, start, start + size)
            start += size
    return _Packing(nvars, forms)


class RingDescriptor:
    """Ambient polynomial ring F_p[variables] with a fixed monomial order.

    order is one of "lex", "grevlex" (default) or "block"; block orders take a
    partition of the variable list (left blocks dominate, grevlex inside each),
    which is what elimination uses.
    """

    __slots__ = ("p", "variables", "order", "blocks", "_index", "_slices", "_packing")

    # As the ring of an Ideal, S is its own ambient and has no relations
    # (quotient.HypersurfaceRing is S with the relation f).
    relations = ()

    @property
    def ambient(self):
        return self

    def __init__(self, p, variables, order="grevlex", blocks=None):
        if not is_prime(p):
            raise ValueError(f"modulus not prime: {p}")
        if p > EXPONENT_LIMIT:
            raise ValueError(f"modulus too large: {p}")
        variables = tuple(variables)
        if not variables:
            raise ValueError("ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable name")
        if order not in ORDER_TAGS:
            raise ValueError(f"unknown monomial order: {order}")
        if order == "block":
            if not blocks:
                raise ValueError("block order needs a block partition")
            blocks = tuple(tuple(b) for b in blocks)
            flat = tuple(v for b in blocks for v in b)
            if flat != variables:
                raise ValueError("blocks must partition the variable list in order")
        elif blocks is not None:
            raise ValueError("blocks only make sense with the block order")
        self.p = p
        self.variables = variables
        self.order = order
        self.blocks = blocks
        self._index = {v: i for i, v in enumerate(variables)}
        ends = itertools.accumulate(map(len, blocks or ()))
        self._slices = tuple(slice(e - len(b), e) for b, e in zip(blocks, ends)) if blocks else None
        self._packing = _packing_for(
            len(variables), order, tuple(map(len, blocks)) if blocks else None
        )

    @property
    def nvars(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name}") from None

    def key(self, m):
        """Sort key: ascending in the ring's monomial order."""
        if self.order == "grevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        if self.order == "lex":
            return m
        return tuple(_grevlex_key(m[s]) for s in self._slices)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingDescriptor)
            and self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.p, self.variables, self.order, self.blocks))

    def __repr__(self):
        tag = "" if self.order == "grevlex" else f":{self.order}"
        return f"F{self.p}[{','.join(self.variables)}]{tag}"


def make_ring(p, variables, order="grevlex", blocks=None) -> RingDescriptor:
    """Construct a ring descriptor; rejects composite p and duplicate names."""
    return RingDescriptor(p, variables, order=order, blocks=blocks)


class Polynomial:
    """Canonical sorted term sequence over a RingDescriptor.

    terms is a tuple of (exponent_tuple, coeff) pairs, strictly descending in
    the ring's order, with no zero coefficients. The zero polynomial has no
    terms. Instances are immutable and hashable. The kernel reads the terms
    packed (_packed_terms): a product, normal form, exact quotient or basis
    element keeps the packed tuple it was made from (packed); any other
    polynomial, a monomial the kernel made included, packs on each use.
    """

    __slots__ = ("ring", "terms", "_h", "_packed")

    def __init__(self, ring, terms=(), canonical=False, packed=None):
        self.ring = ring
        if canonical:
            self.terms = tuple(terms)
        else:
            p = ring.p
            acc = {}
            for m, c in terms:
                c = (acc.get(m, 0) + c) % p
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
            pack = ring._packing.pack
            self.terms = tuple(
                sorted(acc.items(), key=lambda t: pack(t[0]), reverse=True)
            )
        self._h = None
        self._packed = packed

    def _packed_terms(self):
        """terms with each monomial packed by the ring's _Packing."""
        if self._packed is not None:
            return self._packed
        pack = self.ring._packing.pack
        return tuple([(pack(m), c) for m, c in self.terms])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, (), canonical=True)

    @classmethod
    def constant(cls, ring, c):
        c %= ring.p
        if not c:
            return cls.zero(ring)
        return cls(ring, (((0,) * ring.nvars, c),), canonical=True)

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, name):
        i = ring.index(name)
        m = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls(ring, ((m, 1),), canonical=True)

    @classmethod
    def monomial(cls, ring, exponents, coeff=1):
        coeff %= ring.p
        exponents = tuple(exponents)
        if len(exponents) != ring.nvars:
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        if max(exponents) > EXPONENT_LIMIT:
            raise ExponentOverflow(f"exponent beyond {EXPONENT_LIMIT}")
        if not coeff:
            return cls.zero(ring)
        return cls(ring, ((exponents, coeff),), canonical=True)

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def is_monomial(self):
        return len(self.terms) == 1

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if self.ring.order == "grevlex":  # the terms descend by degree first
            return sum(self.terms[0][0])
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        if self.ring.order == "grevlex":
            return sum(self.terms[-1][0]) == d
        return all(sum(m) == d for m, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        self._check(other)
        return Polynomial(self.ring, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(
            self.ring, tuple((m, p - c) for m, c in self.terms), canonical=True
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return Polynomial.zero(self.ring)
            p = self.ring.p
            return Polynomial(
                self.ring,
                tuple((m, (c0 * c) % p) for m, c0 in self.terms),
                canonical=True,
            )
        return self._mul(other, {})

    def _mul(self, other, shared):
        """self * other. shared maps each packed monomial met to (that int, its
        exponent tuple); products made with one shared dict share them."""
        self._check(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.ring)
        if self.degree() + other.degree() > EXPONENT_LIMIT:
            raise ExponentOverflow("product degree beyond checked exponent range")
        # within the degree bound no exponent can pass EXPONENT_LIMIT, so the
        # packed sums need no guard check
        p = self.ring.p
        small, big = self._packed_terms(), other._packed_terms()
        if len(small) > len(big):
            small, big = big, small
        acc = {}
        get = acc.get
        for m1, c1 in small:
            for m2, c2 in big:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        unpack = self.ring._packing.unpack
        packed, terms = [], []
        for m in sorted(acc, reverse=True):
            c = acc[m] % p
            if c:
                m, e = shared.get(m) or shared.setdefault(m, (m, unpack(m)))
                packed.append((m, c))
                terms.append((e, c))
        return Polynomial(self.ring, tuple(terms), canonical=True, packed=tuple(packed))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return Polynomial.one(self.ring)
        if self.terms and self.degree() * n > EXPONENT_LIMIT:
            raise ExponentOverflow("power degree beyond checked exponent range")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def frobenius(self, e):
        """f^(p^e), computed term-wise through the Frobenius endomorphism."""
        if e < 1:
            raise ValueError("Frobenius exponent must be >= 1")
        p = self.ring.p
        q = p**e
        if self.terms and self.degree() * q > EXPONENT_LIMIT:
            raise ExponentOverflow("Frobenius power beyond checked exponent range")
        return Polynomial(
            self.ring,
            tuple(
                (tuple(x * q for x in m), pow(c, q, p)) for m, c in self.terms
            ),
            canonical=True,
        )

    def derivative(self, var):
        """Formal partial derivative; exponents reduce mod p and can kill terms."""
        i = self.ring.index(var)
        p = self.ring.p
        out = []
        for m, c in self.terms:
            a = m[i]
            if a == 0:
                continue
            c2 = (c * a) % p
            if not c2:
                continue
            out.append((m[:i] + (a - 1,) + m[i + 1 :], c2))
        return Polynomial(self.ring, tuple(out), canonical=True)

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        p = self.ring.p
        inv = pow(lc, p - 2, p)
        return Polynomial(
            self.ring, tuple((m, (c * inv) % p) for m, c in self.terms), canonical=True
        )

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._h is None:
            self._h = hash((self.ring, self.terms))
        return self._h

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)} over {self.ring!r}>"


def format_poly(f: Polynomial) -> str:
    """Canonical text form; parse_poly inverts this exactly."""
    if not f.terms:
        return "0"
    names = f.ring.variables
    parts = []
    for m, c in f.terms:
        factors = []
        if c != 1 or not any(m):
            factors.append(str(c))
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
