"""Hypersurface rings R = S/(f): the ambient S with one relation, f.

An ideal of R is a groebner.Ideal whose ring is a HypersurfaceRing; its
preimage in S adjoins f, and every operation in groebner and idealops carries
f through. q_ideal builds one from ambient polynomials.
"""

from __future__ import annotations

from .errors import RingMismatch
from .groebner import Ideal
from .rings import Polynomial, RingDescriptor


class HypersurfaceRing:
    """Ambient polynomial ring plus one defining equation f (nonzero, nonunit).

    Reducedness of S/(f) is asserted metadata from the registry, not computed.
    The ring keeps the I_e of its maximal ideal per e (_Ie_maximal), filled by
    frobenius.Ie_maximal on first use.
    """

    __slots__ = ("ambient", "f", "relations", "reduced", "_Ie_maximal")

    def __init__(self, ambient: RingDescriptor, f: Polynomial, reduced=None):
        if f.ring != ambient:
            raise RingMismatch("defining polynomial from a different ring")
        if not f:
            raise ValueError("hypersurface equation must be nonzero")
        if f.is_constant():
            raise ValueError("hypersurface equation must not be a unit")
        self.ambient = ambient
        self.f = f
        self.relations = (f,)
        self.reduced = reduced
        self._Ie_maximal = {}

    def __eq__(self, other):
        return (
            isinstance(other, HypersurfaceRing)
            and self.ambient == other.ambient
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.ambient, self.f))

    def __repr__(self):
        return f"{self.ambient!r}/({self.f})"


def q_ideal(R: HypersurfaceRing, gens) -> Ideal:
    """Ideal of R generated by ambient polynomials; its preimage adjoins f."""
    return Ideal(R, gens)

