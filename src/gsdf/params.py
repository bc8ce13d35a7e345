"""Parameter sets (v; k1, k2, k3, k4; lambda) for four-block difference families.

A quadruple of base blocks with sizes k1 >= k2 >= k3 >= k4 in Z_v forms a
difference family with index lambda only if

    sum k_i (k_i - 1) = lambda (v - 1)        (counting differences)
    sum k_i           = lambda + v            (trace condition)
    sum (v - 2 k_i)^2 = 4 v                   (quadratic condition)

Any two of the three identities imply the third.  Writing s_i = v - 2 k_i,
the quadratic condition says 4v = s1^2 + s2^2 + s3^2 + s4^2 with every s_i
of the parity of v, so parameter sets biject with such decompositions of
4v, k_i = (v - s_i)/2; one enumeration serves odd and even v alike.

Families whose blocks are skew or symmetric come in three feasible tag
patterns, named by sorted tags (k = skew, s = symmetric):

    ksss:  k1 = (v-1)/2; such sets exist for every odd v
    kkss:  k1 = k2 = (v-1)/2; sets exist iff 2v - 1 = r^2 + s^2
    kkks:  k1 = k2 = k3 = (v-1)/2; sets exist iff 4v - 3 is an odd square
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt

TYPE_NAMES = ("ksss", "kkss", "kkks")

_PARAM_RE = re.compile(r"\(\s*(\d+)\s*;\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*;\s*(-?\d+)\s*\)")


@dataclass(frozen=True, order=True)
class GsParamSet:
    """A parameter set (v; k1,k2,k3,k4; lambda).

    The counting and trace conditions are enforced at construction; the
    ordering k1 >= ... >= k4 is not (complementing a block breaks it), use
    :meth:`normalized` to restore it.
    """

    v: int
    k: tuple
    lam: int

    def __post_init__(self):
        v, k, lam = self.v, self.k, self.lam
        if v < 1:
            raise ValueError("v must be positive")
        if len(k) != 4 or any(not 0 <= ki <= v for ki in k):
            raise ValueError(f"block sizes {k} invalid for v={v}")
        if sum(k) != lam + v:
            raise ValueError(f"{self._fmt()} violates sum k_i = lambda + v")
        if sum(ki * (ki - 1) for ki in k) != lam * (v - 1):
            raise ValueError(f"{self._fmt()} violates sum k_i(k_i-1) = lambda(v-1)")

    def _fmt(self):
        return f"({self.v};{','.join(map(str, self.k))};{self.lam})"

    def __str__(self):
        return self._fmt()

    @classmethod
    def parse(cls, text: str) -> "GsParamSet":
        m = _PARAM_RE.fullmatch(text.strip())
        if not m:
            raise ValueError(f"cannot parse parameter set {text!r}")
        v, k1, k2, k3, k4, lam = map(int, m.groups())
        return cls(v, (k1, k2, k3, k4), lam)

    @property
    def offsets(self) -> tuple:
        """(v - 2 k_1, ..., v - 2 k_4); their squares sum to 4v."""
        return tuple(self.v - 2 * ki for ki in self.k)

    @property
    def is_ordered(self) -> bool:
        k = self.k
        return self.v >= 2 * k[0] and k[0] >= k[1] >= k[2] >= k[3] >= 0

    def complement(self, i: int) -> "GsParamSet":
        """Parameters after replacing block i (0-based) by its complement."""
        if not 0 <= i < 4:
            raise ValueError("block index out of range")
        k = list(self.k)
        lam = self.lam + self.v - 2 * k[i]
        k[i] = self.v - k[i]
        return GsParamSet(self.v, tuple(k), lam)

    def normalized(self) -> "GsParamSet":
        """Complement any block larger than v/2, then sort sizes descending."""
        k = [self.v - ki if 2 * ki > self.v else ki for ki in self.k]
        lam = sum(k) - self.v
        return GsParamSet(self.v, tuple(sorted(k, reverse=True)), lam)


def _square_decompositions(target: int):
    """Nondecreasing quadruples of t_i >= 0 with sum of squares = target."""
    out = []
    for t1 in range(isqrt(target // 4) + 1):
        r1 = target - t1 * t1
        for t2 in range(t1, isqrt(r1 // 3) + 1):
            r2 = r1 - t2 * t2
            for t3 in range(t2, isqrt(r2 // 2) + 1):
                r3 = r2 - t3 * t3
                t4 = isqrt(r3)
                if t4 >= t3 and t4 * t4 == r3:
                    out.append((t1, t2, t3, t4))
    return out


def enumerate_param_sets(v: int) -> list:
    """All ordered parameter sets with index lambda >= 0, sizes descending.

    This is the full solution set of the three identities; it can include
    sets with k1 < (v-1)/2 that no skew block can realize (see
    :func:`searchable_param_sets`).
    """
    if v < 1:
        raise ValueError("v must be positive")
    sets = []
    for s in _square_decompositions(4 * v):
        if all(si % 2 == v % 2 for si in s):
            k = tuple((v - si) // 2 for si in s)
            lam = sum(k) - v
            if lam >= 0:
                sets.append(GsParamSet(v, k, lam))
    sets.sort(key=lambda p: p.k, reverse=True)
    return sets


def _require_skew_order(v: int) -> None:
    if v < 1:
        raise ValueError("v must be positive")
    if v % 2 == 0:
        raise ValueError("skew blocks require odd v")


def searchable_param_sets(v: int) -> list:
    """Parameter sets with k1 = (v-1)/2, the largest size a skew block allows."""
    _require_skew_order(v)
    return [p for p in enumerate_param_sets(v) if 2 * p.k[0] + 1 == v]


def kkss_param_sets(v: int) -> list:
    """Sets with k1 = k2 = (v-1)/2; nonempty iff 2v - 1 is a sum of two squares.

    Each representation 2v - 1 = r^2 + s^2 with r > s >= 0 gives
    (v; (v-1)/2, (v-1)/2, (v-r+s)/2, (v-r-s)/2; v-r-1).
    """
    _require_skew_order(v)
    target = 2 * v - 1
    sets = []
    for s in range(isqrt(target // 2) + 1):
        rr = target - s * s
        r = isqrt(rr)
        if r * r == rr and r > s:
            k = ((v - 1) // 2, (v - 1) // 2, (v - r + s) // 2, (v - r - s) // 2)
            sets.append(GsParamSet(v, k, v - r - 1))
    sets.sort(key=lambda p: p.k, reverse=True)
    return sets


def kkks_param_set(v: int):
    """The set with k1 = k2 = k3 = (v-1)/2 if one exists, else None.

    Requires 4v - 3 = (2r+1)^2, i.e. v = r^2 + r + 1; then
    k4 = r(r-1)/2 and lambda = r^2 - 1.
    """
    _require_skew_order(v)
    q = isqrt(4 * v - 3)
    if q * q != 4 * v - 3:
        return None
    r = (q - 1) // 2
    if r < 1:
        return None
    half = (v - 1) // 2
    return GsParamSet(v, (half, half, half, r * (r - 1) // 2), r * r - 1)


def type_applicable(p: GsParamSet, type_name: str) -> bool:
    """Can parameter set p carry the given tag pattern (skew blocks first)?"""
    n_skew = type_tags(type_name).count("k")
    if p.v % 2 == 0:
        return False
    half = (p.v - 1) // 2
    return all(ki == half for ki in p.k[:n_skew])


def type_tags(type_name: str) -> tuple:
    """Positional tags for a type name, skew blocks leading: 'kkss' -> (k,k,s,s)."""
    if type_name not in TYPE_NAMES:
        raise ValueError(f"unknown type {type_name!r}")
    return tuple(type_name)
