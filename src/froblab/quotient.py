"""Hypersurface rings R = S/(f): the ambient S with one relation, f.

An ideal of R is a groebner.Ideal whose ring is a HypersurfaceRing; its
preimage in S adjoins f, and every operation in groebner and idealops carries
f through. QuotientIdeal and the q_* functions are that type and those
operations under the names of the former quotient-ideal API.
"""

from __future__ import annotations

from .errors import RingMismatch
from .groebner import Ideal, ideal_equal, ideal_member, ideal_subset
from .idealops import bracket_power, ideal_colon, ideal_power, ideal_product, ideal_sum
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


QuotientIdeal = Ideal


def q_ideal(R: HypersurfaceRing, gens) -> Ideal:
    """Ideal of R generated by ambient polynomials; its preimage adjoins f."""
    return Ideal(R, gens)


q_unit = Ideal.unit
q_power = ideal_power
q_product = ideal_product
q_sum = ideal_sum
q_bracket = bracket_power
q_colon = ideal_colon
q_subset = ideal_subset
q_equal = ideal_equal
q_member = ideal_member
