"""Graded sign calculus and the finite sector model of divisor cohomology.

Cohomology of the divisor's rigidified inertia is modelled as a finite
rational vector space: a list of sectors (each with a band order and an
involution image), a homogeneous basis distributed over the sectors, and an
exact pairing matrix.  Everything downstream (dual bases, the two dual
conventions of the evaluator) is linear algebra over Fraction.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.  The only mutable
state is a per-catalog cache of computed duals, written at most once per
entry with an idempotent value.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CatalogError, ParityError, SingularPairingError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"

    @property
    def is_odd(self) -> bool:
        return self is Parity.ODD

    def __mul__(self, other: "Parity") -> "Parity":
        return Parity.ODD if (self is not other) else Parity.EVEN


def koszul_sign(permutation: Sequence[int], parities: Sequence[Parity]) -> int:
    """Sign of reordering graded symbols by ``permutation``.

    ``permutation[k]`` is the source position of the symbol landing in
    target position k.  Each inverted pair of odd symbols contributes -1.
    """
    n = len(permutation)
    if n != len(parities):
        raise ValueError(
            "permutation length %d != parities length %d" % (n, len(parities))
        )
    if sorted(permutation) != list(range(n)):
        raise ValueError("not a permutation of 0..%d: %r" % (n - 1, permutation))
    odd_inversions = 0
    for a in range(n):
        pa = permutation[a]
        if not parities[pa].is_odd:
            continue
        for b in range(a + 1, n):
            pb = permutation[b]
            if pa > pb and parities[pb].is_odd:
                odd_inversions += 1
    return -1 if odd_inversions % 2 else 1


@dataclass(frozen=True)
class Sector:
    """One component of the rigidified inertia of the divisor."""

    id: str
    band_order: int
    involution_image: str

    def __post_init__(self):
        if self.band_order < 1:
            raise CatalogError("sector %r: band_order must be >= 1" % self.id)


@dataclass(frozen=True)
class BasisClass:
    id: str
    sector: str
    parity: Parity


@dataclass(frozen=True)
class SectorCatalog:
    """Sectors, a homogeneous basis, and the pairing matrix.

    ``basis_involution`` gives the induced action of the band-inverting
    involution on basis classes as a signed permutation
    {basis id: (image id, sign)}.  It may be omitted when the involution
    fixes every sector, in which case the identity action is assumed.
    The pairing is only required to be invertible; Koszul symmetry and
    invariance under the involution are checked as warnings since the
    model is user-declared.
    """

    sectors: tuple[Sector, ...]
    basis: tuple[BasisClass, ...]
    pairing: Matrix
    basis_involution: Mapping[str, tuple[str, int]] | None = None
    _dual_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(
            self,
            "pairing",
            tuple(tuple(Fraction(x) for x in row) for row in self.pairing),
        )
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        ids = [s.id for s in self.sectors]
        if len(set(ids)) != len(ids):
            raise CatalogError("duplicate sector ids")
        by_id = {s.id: s for s in self.sectors}
        for s in self.sectors:
            img = by_id.get(s.involution_image)
            if img is None:
                raise CatalogError(
                    "sector %r: involution image %r missing"
                    % (s.id, s.involution_image)
                )
            if img.involution_image != s.id:
                raise CatalogError(
                    "sector involution is not an involution at %r" % s.id
                )
            if img.band_order != s.band_order:
                raise CatalogError(
                    "sector %r and its involution image differ in band order"
                    % s.id
                )
        bids = [b.id for b in self.basis]
        if len(set(bids)) != len(bids):
            raise CatalogError("duplicate basis ids")
        for b in self.basis:
            if b.sector not in by_id:
                raise CatalogError(
                    "basis class %r references unknown sector %r"
                    % (b.id, b.sector)
                )
        n = len(self.basis)
        if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
            raise CatalogError("pairing matrix must be %dx%d" % (n, n))
        inv = self.basis_involution
        if inv is None:
            if any(s.involution_image != s.id for s in self.sectors):
                raise CatalogError(
                    "basis_involution required: sector involution is not the identity"
                )
            inv = {b.id: (b.id, 1) for b in self.basis}
            object.__setattr__(self, "basis_involution", inv)
        else:
            inv = {k: (v[0], int(v[1])) for k, v in dict(inv).items()}
            object.__setattr__(self, "basis_involution", inv)
        by_bid = {b.id: b for b in self.basis}
        if set(inv) != set(by_bid):
            raise CatalogError("basis_involution must cover the basis exactly")
        for bid, (img_id, sign) in inv.items():
            if sign not in (1, -1):
                raise CatalogError("basis_involution sign must be +-1")
            img = by_bid.get(img_id)
            if img is None:
                raise CatalogError("basis_involution image %r unknown" % img_id)
            src = by_bid[bid]
            if img.parity is not src.parity:
                raise CatalogError(
                    "involution must preserve parity (%r -> %r)" % (bid, img_id)
                )
            if img.sector != by_id[src.sector].involution_image:
                raise CatalogError(
                    "involution of %r lands in sector %r, expected %r"
                    % (bid, img.sector, by_id[src.sector].involution_image)
                )
            back_id, back_sign = inv[img_id]
            if back_id != bid or sign * back_sign != 1:
                raise CatalogError(
                    "basis_involution is not an involution at %r" % bid
                )
        self._warn_on_asymmetry()

    def _warn_on_asymmetry(self):
        n = len(self.basis)
        mixed = koszul = None
        for i in range(n):
            for j in range(n):
                pi, pj = self.basis[i].parity, self.basis[j].parity
                if mixed is None and pi is not pj and self.pairing[i][j] != 0:
                    mixed = (i, j)
                sign = -1 if (pi.is_odd and pj.is_odd) else 1
                if koszul is None and self.pairing[i][j] != sign * self.pairing[j][i]:
                    koszul = (i, j)
        if mixed is not None:
            warnings.warn(
                "pairing(%r, %r) nonzero on an odd-parity product"
                % (self.basis[mixed[0]].id, self.basis[mixed[1]].id)
            )
        if koszul is not None:
            warnings.warn(
                "pairing is not Koszul-symmetric at (%r, %r)"
                % (self.basis[koszul[0]].id, self.basis[koszul[1]].id)
            )
        # the involution is a signed permutation b -> sign * image(b), so
        # invariance reads s_i s_j G[image(i)][image(j)] == G[i][j]
        index = {b.id: i for i, b in enumerate(self.basis)}
        inv = self.basis_involution
        image = [(index[inv[b][0]], inv[b][1]) for b in index]
        G = self.pairing
        if any(
            si * sj * G[ii][ij] != G[i][j]
            for i, (ii, si) in enumerate(image)
            for j, (ij, sj) in enumerate(image)
        ):
            warnings.warn("pairing is not involution-invariant")

    # -- lookups -----------------------------------------------------------

    def sector_of(self, basis_id: str) -> Sector:
        b = self.basis_index(basis_id)
        sid = self.basis[b].sector
        for s in self.sectors:
            if s.id == sid:
                return s
        raise CatalogError("unreachable: sector %r missing" % sid)

    def basis_index(self, basis_id: str) -> int:
        for i, b in enumerate(self.basis):
            if b.id == basis_id:
                return i
        raise CatalogError("unknown basis class %r" % basis_id)

    def parity_of(self, basis_id: str) -> Parity:
        return self.basis[self.basis_index(basis_id)].parity

    def band_orders(self) -> tuple[int, ...]:
        return tuple(sorted({s.band_order for s in self.sectors}))

    def involution_pullback(self, vec: Sequence[Fraction]) -> Vector:
        n = len(self.basis)
        index = {b.id: i for i, b in enumerate(self.basis)}
        out = [Fraction(0)] * n
        for i, b in enumerate(self.basis):
            img_id, sign = self.basis_involution[b.id]
            out[index[img_id]] += sign * Fraction(vec[i])
        return tuple(out)

    def band_weights(self) -> Vector:
        by_id = {s.id: s for s in self.sectors}
        return tuple(
            Fraction(by_id[b.sector].band_order) for b in self.basis
        )

    def standard_pairing(
        self, u: Sequence[Fraction], v: Sequence[Fraction]
    ) -> Fraction:
        n = len(self.basis)
        total = Fraction(0)
        for a in range(n):
            ua = Fraction(u[a])
            if ua == 0:
                continue
            row = self.pairing[a]
            for b in range(n):
                vb = Fraction(v[b])
                if vb:
                    total += ua * row[b] * vb
        return total

    def homogeneous_parity(self, vec: Sequence[Fraction]) -> Parity:
        found: Parity | None = None
        for i, b in enumerate(self.basis):
            if Fraction(vec[i]) == 0:
                continue
            if found is None:
                found = b.parity
            elif found is not b.parity:
                raise ParityError(
                    "coordinate vector mixes parities; signs are undefined"
                )
        return found if found is not None else Parity.EVEN


def _invert_or_null(matrix: Matrix) -> tuple[Matrix | None, Vector | None]:
    """Gauss-Jordan inverse, or a nonzero left-null vector on failure."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    row = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    if row < n:
        # aug rows now express row-reduced combinations of the original rows;
        # any zero row gives coefficients of a vanishing combination, i.e. a
        # left-null vector of the matrix.
        for r in range(n):
            if all(aug[r][c] == 0 for c in range(n)):
                return None, tuple(aug[r][n + c] for c in range(n))
        raise AssertionError("rank deficit without a null row")
    inverse = tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))
    return inverse, None


def dual_basis(catalog: SectorCatalog) -> tuple[Vector, ...]:
    """Coordinates of each dual class, dual sitting in the left slot.

    Row i solves pairing(dual_i, basis_j) = delta_ij, so the rows are the
    inverse of the pairing matrix.
    """
    cached = catalog._dual_cache.get("duals")
    if cached is not None:
        return cached
    inverse, null = _invert_or_null(catalog.pairing)
    if inverse is None:
        raise SingularPairingError(
            "pairing matrix is singular; null vector %s" % (null,), null
        )
    catalog._dual_cache["duals"] = inverse
    return inverse


def standard_dual(basis_id: str, catalog: SectorCatalog) -> Vector:
    """The involution pullback of a basis class's standard dual
    (``dual_basis``): the class the ``standard_dual`` convention attaches
    to the other side of a root.  Kept in the catalog's dual cache, as
    ``chen_ruan_dual``'s result is, so each catalog works it out once."""
    cached = catalog._dual_cache.get(("std", basis_id))
    if cached is not None:
        return cached
    dual = dual_basis(catalog)[catalog.basis_index(basis_id)]
    out = catalog._dual_cache[("std", basis_id)] = catalog.involution_pullback(dual)
    return out


def chen_ruan_dual(basis_id: str, catalog: SectorCatalog) -> Vector:
    """Dual of a basis class for the band-weighted involution pairing.

    The locally constant band order times ``standard_dual`` (which is
    already pulled back by the involution), coordinate by coordinate.
    """
    cached = catalog._dual_cache.get(("cr", basis_id))
    if cached is not None:
        return cached
    pulled = standard_dual(basis_id, catalog)
    r = catalog.band_weights()
    out = tuple(r[a] * pulled[a] for a in range(len(pulled)))
    catalog._dual_cache[("cr", basis_id)] = out
    return out
