import itertools
import random
import warnings
from fractions import Fraction

import pytest

from degenkit import checks
from degenkit.algebra import (
    BasisClass,
    Sector,
    SectorCatalog,
    chen_ruan_dual,
    dual_basis,
    koszul_sign,
)
from degenkit.errors import CatalogError, ParityError, SingularPairingError

from helpers import EVEN, ODD, basis_vector, chen_ruan_pairing, monomial_reorder_sign


def test_koszul_all_even_is_plus_one():
    assert koszul_sign([2, 0, 1], [EVEN, EVEN, EVEN]) == 1


def test_koszul_adjacent_odd_swap():
    assert koszul_sign([1, 0], [ODD, ODD]) == -1


def test_koszul_reversal_of_three_odds():
    assert koszul_sign([2, 1, 0], [ODD, ODD, ODD]) == -1


def test_koszul_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [EVEN])


def test_koszul_rejects_non_permutation():
    with pytest.raises(ValueError):
        koszul_sign([0, 0], [EVEN, EVEN])


def test_koszul_matches_monomial_model_small():
    for n in range(0, 5):
        for perm in itertools.permutations(range(n)):
            for bits in itertools.product((EVEN, ODD), repeat=n):
                assert koszul_sign(perm, bits) == monomial_reorder_sign(perm, bits)


def test_koszul_multiplicative():
    rng = random.Random(3)
    for n in range(2, 5):
        for perm_a in itertools.permutations(range(n)):
            for perm_b in itertools.permutations(range(n)):
                for _ in range(2):
                    bits = tuple(rng.choice((EVEN, ODD)) for _ in range(n))
                    composed = tuple(perm_b[perm_a[k]] for k in range(n))
                    inner = koszul_sign(perm_b, bits)
                    outer = koszul_sign(perm_a, tuple(bits[perm_b[k]] for k in range(n)))
                    assert koszul_sign(composed, bits) == inner * outer


def _catalog(pairing, parities=None):
    n = len(pairing)
    parities = parities or [EVEN] * n
    return SectorCatalog(
        sectors=(Sector("s", 1, "s"),),
        basis=tuple(BasisClass("b%d" % i, "s", parities[i]) for i in range(n)),
        pairing=tuple(tuple(Fraction(x) for x in row) for row in pairing),
    )


def test_dual_basis_identity_pairing():
    cat = _catalog([[1, 0], [0, 1]])
    duals = dual_basis(cat)
    assert duals == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )


def test_dual_basis_swap_pairing():
    cat = _catalog([[0, 1], [1, 0]])
    duals = dual_basis(cat)
    assert duals[0] == (Fraction(0), Fraction(1))
    assert duals[1] == (Fraction(1), Fraction(0))


def test_dual_basis_random_3x3_against_matrix_product():
    rng = random.Random(5)
    found = 0
    while found < 10:
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
            for _ in range(3)
        ]
        sym = [[rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)]
        cat = _catalog(sym)
        try:
            duals = dual_basis(cat)
        except SingularPairingError:
            continue
        found += 1
        for i in range(3):
            for j in range(3):
                got = cat.standard_pairing(duals[i], basis_vector(cat, "b%d" % j))
                assert got == (1 if i == j else 0)


def test_dual_basis_round_trip_transposed():
    rng = random.Random(9)
    for _ in range(10):
        n = 4
        while True:
            g = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            gs = [[g[i][j] + g[j][i] for j in range(n)] for i in range(n)]
            cat = _catalog(gs)
            try:
                x = dual_basis(cat)
            except SingularPairingError:
                continue
            break
        # pairing of the duals, transposed per the order convention
        m = len(gs)
        on_duals = [
            [cat.standard_pairing(x[i], x[j]) for j in range(m)] for i in range(m)
        ]
        transposed = [[on_duals[j][i] for j in range(m)] for i in range(m)]
        cat2 = _catalog(transposed)
        w = dual_basis(cat2)
        # w expresses the double duals in dual coordinates; back in the
        # original basis it must be the identity
        back = [
            [
                sum(w[i][a] * x[a][j] for a in range(m))
                for j in range(m)
            ]
            for i in range(m)
        ]
        for i in range(m):
            for j in range(m):
                assert back[i][j] == (1 if i == j else 0)


def test_dual_basis_singular_reports_null_vector():
    cat = _catalog([[1, 1], [1, 1]])
    with pytest.raises(SingularPairingError) as err:
        dual_basis(cat)
    null = err.value.null_vector
    assert any(x != 0 for x in null)
    n = len(cat.basis)
    for j in range(n):
        assert sum(null[i] * cat.pairing[i][j] for i in range(n)) == 0


def test_diagonal_decomposition():
    cat = _catalog([[2, 1], [1, 1]])
    duals = dual_basis(cat)
    n = 2
    for i in range(n):
        for j in range(n):
            total = sum(cat.pairing[i][b] * duals[b][j] for b in range(n))
            assert total == (1 if i == j else 0)


def _conjugate_pair_catalog(band=2, q=Fraction(1, 2)):
    return SectorCatalog(
        sectors=(
            Sector("u", 1, "u"),
            Sector("t+", band, "t-"),
            Sector("t-", band, "t+"),
        ),
        basis=(
            BasisClass("one", "u", EVEN),
            BasisClass("x+", "t+", EVEN),
            BasisClass("x-", "t-", EVEN),
        ),
        pairing=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), q, Fraction(0)),
            (Fraction(0), Fraction(0), q),
        ),
        basis_involution={"one": ("one", 1), "x+": ("x-", 1), "x-": ("x+", 1)},
    )


def test_chen_ruan_dual_untwisted_identity():
    cat = _catalog([[1]])
    assert chen_ruan_dual("b0", cat) == (Fraction(1),)


def test_chen_ruan_dual_band_three_scales():
    cat = SectorCatalog(
        sectors=(Sector("s", 3, "s"),),
        basis=(BasisClass("b", "s", EVEN),),
        pairing=((Fraction(1),),),
    )
    assert chen_ruan_dual("b", cat) == (Fraction(3),)


def test_chen_ruan_duality_identity_on_conjugate_pair():
    cat = _conjugate_pair_catalog()
    n = len(cat.basis)
    r = cat.band_weights()
    for i, b in enumerate(cat.basis):
        tilde = chen_ruan_dual(b.id, cat)
        pulled = cat.involution_pullback(tilde)
        scaled = tuple(pulled[a] / r[a] for a in range(n))
        for j in range(n):
            got = cat.standard_pairing(scaled, basis_vector(cat, cat.basis[j].id))
            assert got == (1 if i == j else 0)


def test_chen_ruan_pairing_gives_identity_matrix():
    cat = _conjugate_pair_catalog()
    for j, bj in enumerate(cat.basis):
        tilde = chen_ruan_dual(bj.id, cat)
        for i, bi in enumerate(cat.basis):
            got = chen_ruan_pairing(cat, tilde, basis_vector(cat, bi.id))
            assert got == (1 if i == j else 0)


def test_catalog_missing_involution_image():
    with pytest.raises(CatalogError):
        SectorCatalog(
            sectors=(Sector("a", 2, "gone"),),
            basis=(BasisClass("x", "a", EVEN),),
            pairing=((Fraction(1),),),
        )


def test_catalog_band_order_must_match_involution():
    with pytest.raises(CatalogError):
        SectorCatalog(
            sectors=(Sector("a", 2, "b"), Sector("b", 3, "a")),
            basis=(),
            pairing=(),
        )


def test_basis_involution_must_preserve_parity():
    with pytest.raises(CatalogError):
        SectorCatalog(
            sectors=(Sector("s", 1, "s"),),
            basis=(BasisClass("e", "s", EVEN), BasisClass("o", "s", ODD)),
            pairing=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            basis_involution={"e": ("o", 1), "o": ("e", 1)},
        )


def test_nonsymmetric_pairing_warns_not_raises():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _catalog([[1, 2], [3, 4]])
    assert any("Koszul" in str(w.message) for w in caught)


def test_mixed_parity_pairing_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _catalog([[0, 1], [1, 0]], parities=[EVEN, ODD])
    assert any("odd-parity" in str(w.message) for w in caught)


def test_inhomogeneous_vector_parity_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cat = _catalog([[1, 0], [0, 1]], parities=[EVEN, ODD])
    with pytest.raises(ParityError):
        cat.homogeneous_parity((Fraction(1), Fraction(1)))


def _invariance_warned(catalog_args) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SectorCatalog(**catalog_args)
    return any("involution-invariant" in str(w.message) for w in caught)


def _sign_swapped_pair(pairing):
    # x and y are swapped by the involution, each with the sign -1
    return dict(
        sectors=(Sector("t+", 2, "t-"), Sector("t-", 2, "t+")),
        basis=(BasisClass("x", "t+", EVEN), BasisClass("y", "t-", EVEN)),
        pairing=tuple(tuple(Fraction(v) for v in row) for row in pairing),
        basis_involution={"x": ("y", -1), "y": ("x", -1)},
    )


def test_involution_invariance_warning():
    assert not _invariance_warned(_sign_swapped_pair([[2, 1], [1, 2]]))
    assert _invariance_warned(_sign_swapped_pair([[2, 1], [1, 3]]))


def test_involution_invariance_warning_against_the_matrix_product():
    # the warning fires exactly when J^T G J != G, J the matrix of the pullback
    rng = random.Random(14)
    warned = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        ids = ["b%d" % i for i in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        involution = {}
        while order:
            i = order.pop()
            j = order.pop() if order and rng.random() < 0.6 else i
            sign = rng.choice([1, -1])
            involution[ids[i]] = (ids[j], sign)
            involution[ids[j]] = (ids[i], sign)
        pairing = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            # average over the involution: an invariant pairing
            image = [(ids.index(involution[b][0]), involution[b][1]) for b in ids]
            pairing = [
                [(pairing[i][j] + si * sj * pairing[ii][ij]) / 2
                 for j, (ij, sj) in enumerate(image)]
                for i, (ii, si) in enumerate(image)
            ]
        J = [[Fraction(0)] * n for _ in range(n)]
        for b in ids:
            img, sign = involution[b]
            J[ids.index(img)][ids.index(b)] = Fraction(sign)
        expected = any(
            sum(J[a][i] * pairing[a][b] * J[b][j] for a in range(n) for b in range(n))
            != pairing[i][j]
            for i in range(n)
            for j in range(n)
        )
        got = _invariance_warned(
            dict(
                sectors=(Sector("s", 1, "s"),),
                basis=tuple(BasisClass(b, "s", EVEN) for b in ids),
                pairing=tuple(map(tuple, pairing)),
                basis_involution=involution,
            )
        )
        assert got == expected
        warned += got
    assert 0 < warned < 300


def test_check_algebra_retries_only_singular_draws(monkeypatch):
    # a singular draw is drawn again; any other failure of dual_basis is a
    # fault, which would repeat on every draw, and must not be swallowed
    calls = []

    def dual_basis_failing_once(cat):
        calls.append(cat)
        if len(calls) == 1:
            raise TypeError("not a singular pairing")
        return dual_basis(cat)

    monkeypatch.setattr(checks, "dual_basis", dual_basis_failing_once)
    with pytest.raises(TypeError, match="not a singular pairing"):
        checks.check_algebra()
