"""Exact multivariate polynomial arithmetic over a prime field F_p.

Coefficients are plain int residues in [0, p); the modulus and the monomial
order live on the RingDescriptor. Polynomials are immutable, canonically
sorted term sequences, so equality and hashing are structural.

A Polynomial is stored once, as its packed terms: one int per monomial
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), packed by the RingDescriptor's
_Packing, whose int order is the ring's monomial order. The kernel -- the
arithmetic and canonical sorting here; reduction, Buchberger, exact division
and monomial pruning in groebner -- works on those ints and makes its results
through Polynomial._from_packed; Polynomial.in_ring moves packed terms to
another ring over the same p by variable name, and degrees are read off the
packed ints. Exponent tuples are the view outside the kernel: the
constructor packs and checks them, and Polynomial.terms and lead_monomial()
decode on demand. mono_mul, on tuples, is not part of the kernel: it serves
the linear-algebra membership oracle, which checks the kernel independently.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from operator import add, mul

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
    return tuple(map(add, a, b))


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
    grevlex forms of each block, given by their sizes (none for lex, whose
    exponent fields already compare lexicographically), each field just wide
    enough for its largest value when every exponent is at most EXPONENT_LIMIT;
    degrees holds, top first, the (shift, mask) of each block's degree form.
    Sums of two packed monomials never carry between exponent fields; an
    exponent past EXPONENT_LIMIT sets its guard bit, which check() turns into
    ExponentOverflow.
    """

    __slots__ = ("units", "guards", "degrees", "_mask", "_struct", "_nbytes")

    def __init__(self, nvars, blocks):
        bounds = (0, *itertools.accumulate(blocks))  # each block's first variable, then the end
        forms = [f for a, b in itertools.pairwise(bounds) for f in _grevlex_forms(nvars, a, b)]
        shift = _FIELD_BITS * nvars
        units = [1 << (_FIELD_BITS * (nvars - 1 - i)) for i in range(nvars)]
        degrees = []
        for k in reversed(range(len(forms))):
            for i, w in enumerate(forms[k]):
                units[i] += w << shift
            width = (sum(forms[k]) * EXPONENT_LIMIT).bit_length()
            if k in bounds:  # a block of s variables has s forms
                degrees.append((shift, (1 << width) - 1))
            shift += width
        self.units = tuple(units)
        self.degrees = tuple(reversed(degrees))  # the top field first
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
    return _Packing(nvars, () if order == "lex" else block_sizes or (nvars,))


class RingDescriptor:
    """Ambient polynomial ring F_p[variables] with a fixed monomial order.

    order is one of "lex", "grevlex" (default) or "block"; block orders take a
    partition of the variable list (left blocks dominate, grevlex inside each),
    which is what elimination uses. There is one instance per ring: the
    arguments are checked on every call, then looked up in a table that
    never evicts, so rings compare and hash by identity.
    """

    __slots__ = ("p", "variables", "order", "blocks", "_index", "_packing")

    # As the ring of an Ideal, S is its own ambient and has no relations
    # (quotient.HypersurfaceRing is S with the relation f).
    relations = ()
    _instances = {}  # (p, variables, order, blocks) -> the ring

    @property
    def ambient(self):
        return self

    def __new__(cls, p, variables, order="grevlex", blocks=None):
        if not isinstance(p, int):  # 2.0 == 2 would share F_2's entry in the table
            raise TypeError(f"modulus must be an int, not {p!r}")
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
        key = (p, variables, order, blocks)
        self = cls._instances.get(key)
        if self is None:
            self = cls._instances[key] = super().__new__(cls)
            self.p = p
            self.variables = variables
            self.order = order
            self.blocks = blocks
            self._index = {v: i for i, v in enumerate(variables)}
            self._packing = _packing_for(
                len(variables), order, tuple(map(len, blocks)) if blocks else None
            )
        return self

    @property
    def nvars(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name}") from None

    def __repr__(self):
        tag = "" if self.order == "grevlex" else f":{self.order}"
        return f"F{self.p}[{','.join(self.variables)}]{tag}"


def make_ring(p, variables, order="grevlex", blocks=None) -> RingDescriptor:
    """Construct a ring descriptor; rejects composite p and duplicate names."""
    return RingDescriptor(p, variables, order=order, blocks=blocks)


class Polynomial:
    """Canonical sorted term sequence over a RingDescriptor.

    Stored once, as packed terms: (packed monomial, coeff) pairs strictly
    descending, which is descending in the ring's order, with no zero
    coefficients. The zero polynomial has no terms. Instances are immutable
    and hashable. terms, the (exponent_tuple, coeff) pairs, is decoded on
    each use and not kept (keeping it raised the peak RSS of the benchmark's
    thresholds workload by 0.3 MB); lead_monomial() decodes the leading
    monomial alone. The kernel makes its results through _from_packed.
    """

    __slots__ = ("ring", "_packed")

    def __init__(self, ring, terms=()):
        n, pack = ring.nvars, ring._packing.pack
        acc = {}
        for m, c in terms:
            if len(m) != n:
                raise ValueError("exponent tuple has wrong length")
            if min(m) < 0:
                raise ValueError("negative exponent")
            if max(m) > EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent beyond {EXPONENT_LIMIT}")
            m = pack(m)
            acc[m] = acc.get(m, 0) + c
        self.ring = ring
        self._packed = _canonical(ring.p, acc)

    @classmethod
    def _from_packed(cls, ring, packed):
        """The polynomial of canonical packed terms, taken as they are."""
        self = object.__new__(cls)
        self.ring, self._packed = ring, packed
        return self

    @property
    def terms(self):
        unpack = self.ring._packing.unpack
        return tuple([(unpack(m), c) for m, c in self._packed])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls._from_packed(ring, ())

    @classmethod
    def constant(cls, ring, c):
        c %= ring.p
        return cls._from_packed(ring, ((0, c),) if c else ())

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, name):
        return cls._from_packed(ring, ((ring._packing.units[ring.index(name)], 1),))

    @classmethod
    def monomial(cls, ring, exponents, coeff=1):
        return cls(ring, ((tuple(exponents), coeff),))

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self._packed)

    def is_constant(self):
        return not self._packed or self._packed[0][0] == 0

    def is_monomial(self):
        return len(self._packed) == 1

    def lead_monomial(self):
        if not self._packed:
            raise ValueError("zero polynomial has no leading monomial")
        return self.ring._packing.unpack(self._packed[0][0])

    def lead_coeff(self):
        if not self._packed:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._packed[0][1]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        degrees = self.ring._packing.degrees
        if len(degrees) == 1 and self._packed:  # one grevlex block: the terms descend by degree
            return self._packed[0][0] >> degrees[0][0]
        return max(self._degrees(), default=-1)

    def is_homogeneous(self):
        return len(set(self._degrees())) <= 1

    def _degrees(self):
        """Total degrees of the terms, read from the packed ints: with one
        grevlex block the top field, of the first and last terms only, which
        bound the others'; with two, as eliminations have, the sum of the two
        degree fields; under lex or more blocks, the sum of the exponents."""
        packed, degrees = self._packed, self.ring._packing.degrees
        if len(degrees) == 1:
            return [m >> degrees[0][0] for m, _ in packed[:1] + packed[-1:]]
        if len(degrees) == 2:
            (top, _), (shift, mask) = degrees  # the top field needs no mask
            return [(m >> top) + ((m >> shift) & mask) for m, _ in packed]
        return list(map(sum, map(self.ring._packing.unpack, [m for m, _ in packed])))

    def in_ring(self, ring):
        """This polynomial in ring, a polynomial ring over the same p, by
        variable name: one unpack per term, dotted with ring's units. Raises
        RingMismatch for another p, ValueError for a variable ring lacks."""
        if ring.p != self.ring.p:
            raise RingMismatch(f"ring mismatch: {self.ring} vs {ring}")
        units, lost = _ring_map(self.ring, ring)
        if lost and any(m & lost for m, _ in self._packed):
            raise ValueError(f"{self} has a variable that {ring!r} lacks")
        unpack = self.ring._packing.unpack
        terms = [(sum(map(mul, unpack(m), units)), c) for m, c in self._packed]
        return Polynomial._from_packed(ring, tuple(sorted(terms, reverse=True)))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"ring mismatch: {self.ring} vs {other.ring}")

    def _scaled(self, coeffs):
        """The polynomial of the same monomials with the coefficients coeffs."""
        return Polynomial._from_packed(
            self.ring, tuple([(m, c) for (m, _), c in zip(self._packed, coeffs)])
        )

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        self._check(other)
        acc = dict(self._packed)
        for m, c in other._packed:
            acc[m] = acc.get(m, 0) + c
        return Polynomial._from_packed(self.ring, _canonical(self.ring.p, acc))

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return self._scaled(p - c for _, c in self._packed)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self.ring.p
        if isinstance(other, int):
            c = other % p
            if not c:
                return Polynomial.zero(self.ring)
            return self._scaled(c0 * c % p for _, c0 in self._packed)
        self._check(other)
        if not self._packed or not other._packed:
            return Polynomial.zero(self.ring)
        if self.degree() + other.degree() > EXPONENT_LIMIT:
            raise ExponentOverflow("product degree beyond checked exponent range")
        # within the degree bound no exponent can pass EXPONENT_LIMIT, so the
        # packed sums need no guard check
        small, big = self._packed, other._packed
        if len(small) > len(big):
            small, big = big, small
        acc = {}
        get = acc.get
        for m1, c1 in small:
            for m2, c2 in big:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        return Polynomial._from_packed(self.ring, _canonical(p, acc))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return Polynomial.one(self.ring)
        if self._packed and self.degree() * n > EXPONENT_LIMIT:
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
        """f^(p^e), computed term-wise through the Frobenius endomorphism,
        which fixes the coefficients (c^p = c in F_p); packing is linear, so
        the packed monomial of m^q is q times m's."""
        if e < 1:
            raise ValueError("Frobenius exponent must be >= 1")
        q = self.ring.p**e
        if self._packed and self.degree() * q > EXPONENT_LIMIT:
            raise ExponentOverflow("Frobenius power beyond checked exponent range")
        return Polynomial._from_packed(
            self.ring, tuple([(m * q, c) for m, c in self._packed])
        )

    def derivative(self, var):
        """Formal partial derivative; exponents reduce mod p and can kill terms."""
        i = self.ring.index(var)
        p = self.ring.p
        out = []
        for m, c in self.terms:
            if m[i] % p:
                out.append((m[:i] + (m[i] - 1,) + m[i + 1 :], c * m[i]))
        return Polynomial(self.ring, out)

    def monic(self):
        terms = _monic(self.ring, self._packed)
        return self if terms is self._packed else Polynomial._from_packed(self.ring, terms)

    def without_last_power(self):
        """self divided by the largest power of the last variable that divides
        it; self itself when that power is 1. The last variable's exponent is
        the lowest packed field, and dividing by a monomial keeps the order."""
        val = min((m & EXPONENT_LIMIT for m, _ in self._packed), default=0)
        if not val:
            return self
        unit = val * self.ring._packing.units[-1]
        return Polynomial._from_packed(self.ring, tuple([(m - unit, c) for m, c in self._packed]))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash((self.ring, self._packed))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)} over {self.ring!r}>"


@functools.lru_cache(maxsize=64)
def _ring_map(source, target):
    """Polynomial.in_ring's map: per variable of source, the packed unit of
    target's variable of that name, 0 if there is none; and the mask of the
    exponent fields of the variables target lacks."""
    index, packing = target._index, source._packing
    units = tuple(target._packing.units[index[v]] if v in index else 0 for v in source.variables)
    lost = sum(EXPONENT_LIMIT * (u & packing._mask)
               for u, v in zip(packing.units, source.variables) if v not in index)
    return units, lost


def _monic(ring, terms):
    """Packed terms divided by their leading coefficient; terms themselves
    when there are none or it is 1."""
    if not terms or terms[0][1] == 1:
        return terms
    p = ring.p
    inv = pow(terms[0][1], p - 2, p)
    return tuple([(m, c * inv % p) for m, c in terms])


def _canonical(p, acc):
    """Canonical packed terms of {packed monomial: coefficient}: coefficients
    mod p, zeros dropped, descending."""
    terms = [(m, acc[m] % p) for m in sorted(acc, reverse=True)]
    return tuple([t for t in terms if t[1]])


def sorted_canonical(polys):
    """Nonzero polys ascending by leading monomial in the ring's order; those
    with one leading monomial by their terms, exponent tuples compared
    lexicographically. That is the lex order of the exponent fields, m & mask,
    which is computed only for the polynomials that tie."""
    def lead(g):
        return g._packed[0][0]

    out = []
    for _, tied in itertools.groupby(sorted(polys, key=lead), key=lead):
        tied = list(tied)
        if len(tied) > 1:
            mask = tied[0].ring._packing._mask
            tied.sort(key=lambda g: [(m & mask, c) for m, c in g._packed])
        out += tied
    return out


def format_poly(f: Polynomial) -> str:
    """Canonical text form; parse_poly inverts this exactly."""
    if not f:
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
