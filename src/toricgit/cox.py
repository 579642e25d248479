"""Cox presentation data: grading, irrelevant ideal, zero-locus geometry.

The degree map realizes the class group as the cokernel of the ray
matrix, read off the left Smith transform of the rays as plain integer
rows, one degree per coordinate variable.  The irrelevant ideal is kept
purely combinatorial, as a list of generator supports, and its zero
locus is only ever touched through its codimension: zero_locus_codim
searches for one smallest hitting set of the generator supports, capped
at MAX_HITTING_SET_VARS variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fans import _cokernel, _is_antichain, _mask, validate
from .linalg import det

# The hitting-set search branches over subsets of the variables.
MAX_HITTING_SET_VARS = 20


@dataclass(frozen=True)
class DegreeMap:
    """Grading of the Cox variables by the class group.

    degrees_free[i] is the image of the i-th variable in the free part
    Z^cl_free_rank; degrees_torsion[i] collects its residues modulo the
    invariant factors in `torsion`.  Coordinates depend on the Smith
    basis, so callers should test relations and cone memberships, not
    raw vectors.  Its hash is computed once, as is SquarefreeIdeal's.
    """

    n_rays: int
    cl_free_rank: int
    torsion: tuple
    degrees_free: tuple
    degrees_torsion: tuple

    def __post_init__(self):
        key = (self.n_rays, self.cl_free_rank, self.torsion, self.degrees_free, self.degrees_torsion)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def divisor_class(self, coefficients):
        """Class of sum(a_i * D_i) in free coordinates plus residues."""
        if len(coefficients) != self.n_rays:
            raise ValueError("coefficient list does not match the ray count")
        free = tuple(
            sum(a * d[k] for a, d in zip(coefficients, self.degrees_free))
            for k in range(self.cl_free_rank)
        )
        tors = tuple(
            sum(a * d[k] for a, d in zip(coefficients, self.degrees_torsion))
            % self.torsion[k]
            for k in range(len(self.torsion))
        )
        return free, tors


@lru_cache(maxsize=8192)
def degree_map(fan) -> DegreeMap:
    """Cokernel grading of the fan's ray matrix.

    Only complete fans are accepted: the rank formula
    cl_free_rank = n_rays - dim needs the rays to span.  The Smith form
    is the fan's one, fans._cokernel, which section counts read too.
    """
    if not validate(fan).complete:
        raise ValueError("degree map needs a complete fan")
    data = _cokernel(fan)
    degrees_free = tuple(
        tuple(data.projection[k][i] for k in range(data.free_rank))
        for i in range(fan.n_rays)
    )
    degrees_torsion = tuple(
        tuple(
            data.torsion_projection[k][i] % data.torsion[k]
            for k in range(len(data.torsion))
        )
        for i in range(fan.n_rays)
    )
    return DegreeMap(
        n_rays=fan.n_rays,
        cl_free_rank=data.free_rank,
        torsion=data.torsion,
        degrees_free=degrees_free,
        degrees_torsion=degrees_torsion,
    )


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Squarefree monomial ideal given by its generator supports.

    Supports form an antichain of nonempty index sets.  An ideal with no
    supports stands for the degenerate unit ideal (empty zero locus);
    see the per-operation conventions below.
    """

    n_vars: int
    generator_supports: tuple

    def __post_init__(self):
        supports = tuple(
            sorted(set(tuple(sorted(s)) for s in self.generator_supports))
        )
        for s in supports:
            if not s:
                raise ValueError("empty generator support")
            if s[0] < 0 or s[-1] >= self.n_vars:
                raise ValueError(f"support {s} out of range")
        if not _is_antichain(tuple(map(_mask, supports))):
            raise ValueError("generator supports must be an antichain")
        object.__setattr__(self, "generator_supports", supports)
        object.__setattr__(self, "_hash", hash((self.n_vars, supports)))

    __hash__ = DegreeMap.__hash__


@lru_cache(maxsize=1024)
def irrelevant_ideal(fan) -> SquarefreeIdeal:
    """Generators x^(complement of sigma) over the maximal cones.

    A maximal cone using every ray would contribute the monomial 1; that
    degenerate case collapses to the no-generator (unit) ideal.  Cached,
    like zero_locus_codim, since check all asks for the codimension of
    each fan's ideal once per neighborliness check.
    """
    n = fan.n_rays
    complements = set()
    for c in fan.max_cones:
        comp = tuple(sorted(set(range(n)) - set(c)))
        if not comp:
            return SquarefreeIdeal(n, ())
        complements.add(comp)
    return SquarefreeIdeal(n, tuple(sorted(complements)))


@lru_cache(maxsize=1024)
def zero_locus_codim(ideal) -> int:
    """Codimension of V(ideal) in affine space.

    Equals the size of a smallest set meeting every support.  For
    k = 1, 2, ... a search on bitmasks with at most k picks branches on
    the elements of the first (smallest) support it misses; every
    hitting set of size <= k holds one of them, so the first k found is
    exact.  The no-generator ideal has empty zero locus; that is
    reported with the sentinel n_vars + 1 rather than an error.
    """
    n = ideal.n_vars
    if not ideal.generator_supports:
        return n + 1
    if n > MAX_HITTING_SET_VARS:
        raise ValueError(
            f"hitting-set search is capped at {MAX_HITTING_SET_VARS} variables"
        )
    masks = sorted(map(_mask, ideal.generator_supports), key=int.bit_count)

    def hits(chosen, budget, seen):
        missed = next((m for m in masks if not chosen & m), 0)
        if not missed:
            return True
        if not budget or chosen in seen:
            return False
        seen.add(chosen)
        while missed:
            bit = missed & -missed
            missed ^= bit
            if hits(chosen | bit, budget - 1, seen):
                return True
        return False

    codim = next(k for k in range(1, n + 1) if hits(0, k, set()))
    del hits  # hits' closure holds hits, a cycle that would keep masks alive until a collection
    return codim


def _acts_freely(fan, dm) -> bool:
    """Does the Cox torus act freely off V(I), judged from the grading?

    The largest stabilisers sit at points whose zero coordinates are a
    maximal cone sigma, and such a stabiliser is trivial iff the degrees
    of the rays outside sigma generate the class group, torsion
    included: their rows plus a row t_k * e per torsion factor must
    generate Z^(r + t).  On a complete simplicial fan those are
    n - dim = r degree rows and t torsion rows, a square matrix, which
    generates exactly when its determinant is +-1.  This reads the
    grading, not the rays, so it stays independent of validate's
    smoothness test.
    """
    r, width = dm.cl_free_rank, dm.cl_free_rank + len(dm.torsion)
    relations = [
        tuple(tk if j == r + k else 0 for j in range(width))
        for k, tk in enumerate(dm.torsion)
    ]
    for sigma in fan.max_cones:
        rows = [
            dm.degrees_free[i] + dm.degrees_torsion[i]
            for i in range(fan.n_rays)
            if i not in sigma
        ]
        if abs(det(rows + relations)) != 1:
            return False
    return True
