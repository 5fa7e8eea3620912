"""Covering numbers, the ratio functional, its point-mass limit, and the
invariant measure: the property suite behind the measure construction.

Random instances are seeded; every identity/inequality is exact over
Fraction.  The suite runs on a commutative group, a nonabelian group, the
octonion basis loop and one smashed product so both the associative and the
genuinely nonassociative regimes are exercised.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import test_lp
from fanloops import catalog, census, core, haar, lp, products, quotient
from fanloops.errors import (
    FanLoopCheckFailed,
    LoopMismatch,
    NotASubgroup,
    NotFanLoop,
    NotNormal,
    ReferenceNotInUpsilon,
    ZeroComparisonFunction,
    ZeroReference,
)

F = Fraction
SEED = 901127


@pytest.fixture(scope="module")
def suite_loops(groups8, oct16, smash_products):
    base = dict(groups8)
    s4 = [P for d, P in smash_products if d.name == "s4-xi-c2-q8"][0]
    return [
        ("C4", base["C4"]),
        ("S3", base["S3"]),
        ("O16", oct16),
        ("s4", s4),
    ]


def _samples(G, rng, k=3):
    return [
        (haar.random_function(G, rng), haar.random_function(G, rng))
        for _ in range(k)
    ]


# --- LoopFunction basics -----------------------------------------------------

def test_loop_function_validation(oct16):
    with pytest.raises(ValueError):
        haar.LoopFunction(oct16, (1,) * 15)
    with pytest.raises(ValueError):
        haar.LoopFunction(oct16, (F(-1),) + (F(0),) * 15)
    f = haar.char(oct16, ("1", "-1"))
    assert f.support() == {0, 1}
    assert f.total() == 2 and f.sup_norm() == 1
    assert f.scale(F(1, 2)).values[0] == F(1, 2)
    assert haar.delta(oct16, "e1")(2) == 1
    assert haar.char(oct16, ()).is_zero()


@pytest.mark.parametrize("value", [0.1, float("nan"), np.float64(0.1),
                                   np.float32(0.5)])
def test_loop_function_refuses_floats(q8, value):
    with pytest.raises(ValueError, match="float .* is not exact") as exc:
        haar.LoopFunction(q8, [value] * 8)
    assert repr(value) in str(exc.value)
    with pytest.raises(ValueError, match="is not exact"):
        haar.constant(q8, value)
    with pytest.raises(ValueError, match="is not exact"):
        haar.delta(q8).scale(value)


def test_loop_function_takes_exact_values(q8):
    f = haar.LoopFunction(q8, [1, F(1, 3), "2/7", "5", np.int64(4), 0, 0, 0])
    assert f.values[:5] == (1, F(1, 3), F(2, 7), 5, 4)
    assert all(type(v) is F for v in f.values)
    assert haar.constant(q8, "1/2").total() == 4


def test_loop_function_equality_across_copies():
    A, B = catalog.cyclic(4), catalog.cyclic(4)
    f = haar.delta(A) + haar.delta(A, 2)
    g = haar.delta(B) + haar.delta(B, 2)
    assert f == g            # equal loops, equal values
    assert f != f.scale(2)
    with pytest.raises(LoopMismatch):
        haar.delta(A) + haar.delta(catalog.cyclic(4, "h"))


def test_random_function_is_seeded_and_small(oct16):
    f1 = haar.random_function(oct16, random.Random(7))
    f2 = haar.random_function(oct16, random.Random(7))
    assert f1 == f2 and not f1.is_zero()
    assert all(v.denominator <= 8 for v in f1.values)


def test_translate_modes(oct16):
    f = haar.random_function(oct16, random.Random(3))
    b = oct16.index("e2")
    lf = haar.translate(f, "e2", "left")
    rf = haar.translate(f, b, "right")
    df = haar.translate(f, b, "left-div")
    for x in range(oct16.order):
        assert lf(x) == f(int(oct16.table[b, x]))
        assert rf(x) == f(int(oct16.table[x, b]))
        assert df(x) == f(int(oct16.ldiv[b, x]))
    with pytest.raises(ValueError):
        haar.translate(f, b, "up")


def _assert_least_integer_form(f):
    scale, nums = f.integer_form
    assert type(scale) is int and scale >= 1
    assert all(type(v) is int for v in nums)
    assert [F(v, scale) for v in nums] == list(f.values)
    assert math.gcd(scale, *nums) == 1   # no smaller scale clears them all


def test_loop_function_integer_form_is_the_values_at_least_scale(oct16, q8):
    big = 2**100 + 1
    cases = [
        haar.LoopFunction(q8, [0] * 8),
        haar.LoopFunction(q8, [F(big, 3), F(5, 2**70), big, 0, 1,
                               F(1, 6), F(3, 4), F(2**64, 2**64 + 1)]),
        haar.constant(oct16, "7/3"),
        haar.delta(oct16, 5),
    ]
    assert cases[0].integer_form == (1, (0,) * 8)
    assert haar.LoopFunction(q8, [F(1, 6), F(3, 4), 2] + [0] * 5
                             ).integer_form == (12, (2, 9, 24) + (0,) * 5)
    rng = random.Random(SEED)
    for G in (q8, oct16):
        for _ in range(4):
            f = haar.random_function(G, rng)
            cases += [f, f.scale(F(6, 35)), f.scale(0),
                      haar.translate(f, rng.randrange(G.order), "left"),
                      haar.translate(f, rng.randrange(G.order), "left-div"),
                      haar.fan_average(f, G.analysis.fan)]
    cases.append(cases[1].scale(F(3, big)))
    for f in cases:
        _assert_least_integer_form(f)


@pytest.mark.parametrize("build", [
    lambda G: haar.delta(G, -1),
    lambda G: haar.delta(G, G.order),
    lambda G: haar.char(G, [0, -2]),
    lambda G: haar.char(G, [G.order]),
    lambda G: haar.translate(haar.delta(G), -1),
    lambda G: haar.translate(haar.delta(G), G.order, "right"),
    lambda G: haar.invariant_measure(G).mass([-1]),
    lambda G: G.subset([G.order]),
    lambda G: quotient.quotient(G, [0, G.order]),
    lambda G: core.subgroup_closure(G, [G.order]),
], ids=["delta-neg", "delta-n", "char-neg", "char-n", "translate-neg",
        "translate-n", "mass-neg", "subset-n", "quotient-n", "closure-n"])
def test_element_indices_outside_the_loop_are_refused(q8, build):
    # Python would read -1 as the last element and raise IndexError at n
    with pytest.raises(ValueError, match=r"element index -?\d+ outside 0\.\.7"):
        build(q8)


def test_element_indices_that_are_not_integers_are_refused(q8):
    # int() would truncate 1.5 to element 1, and Python reads True as 1
    for build in (lambda: haar.delta(q8, 1.5), lambda: haar.char(q8, [F(3, 2)]),
                  lambda: haar.translate(haar.delta(q8), 1.0),
                  lambda: haar.delta(q8, True), lambda: q8.subset([1.5]),
                  lambda: q8.subset([True]),
                  lambda: core.subgroup_closure(q8, [1.5])):
        with pytest.raises(ValueError, match="neither an index nor a label"):
            build()
    assert haar.delta(q8, np.int64(2)) == haar.delta(q8, 2)


def test_unknown_element_labels_are_refused(q8):
    for build in (lambda: haar.delta(q8, "zz"),
                  lambda: haar.char(q8, ["e1", "zz"]),
                  lambda: haar.translate(haar.delta(q8), "zz"),
                  lambda: haar.invariant_measure(q8).mass(["zz"]),
                  lambda: q8.subset(["zz"])):
        with pytest.raises(ValueError, match="unknown element label 'zz'"):
            build()


def test_operations_on_a_built_function_stay_in_integer_form(q8, monkeypatch):
    # the values are made exact and scaled once, when f is built; nothing
    # after that goes back through a Fraction vector
    n = q8.order
    f = haar.LoopFunction(q8, [F(1, 2), F(1, 3), 0, 2, F(5, 6), 0, 1, F(1, 4)])
    g = haar.LoopFunction(q8, [F(1, 6), F(2, 3), 1, 0, F(1, 6), 0, 0, F(3, 4)])
    n0 = core.ElementSet(q8, frozenset({0, 1}))      # {1, -1}
    even = haar.LoopFunction(q8, [F(1, 3)] * n)

    def refuse(*args):
        raise AssertionError("a built function went back through Fractions")

    monkeypatch.setattr(lp, "scaled", refuse)
    monkeypatch.setattr(lp, "rational", refuse)
    tbl, ldiv = q8.table, q8.ldiv
    for mode, idx in (("left", tbl[3, :]), ("right", tbl[:, 3]),
                      ("left-div", ldiv[3, :])):
        h = haar.translate(f, 3, mode)
        assert [h(x) for x in range(n)] == [f(int(i)) for i in idx]
        _assert_least_integer_form(h)
    assert f.scale(F(6, 5)).values == tuple(F(6, 5) * v for v in f.values)
    assert f.scale(3)(0) == F(3, 2) and f.scale(0).integer_form == (1, (0,) * n)
    total = f + g
    assert total.values == tuple(a + b for a, b in zip(f.values, g.values))
    assert total.integer_form == (3, (2, 3, 3, 6, 3, 0, 3, 3))
    _assert_least_integer_form(total)
    avg = haar.fan_average(f, n0)
    assert avg.values == tuple(
        sum(f(int(tbl[c, x])) for c in n0.members) / len(n0.members)
        for x in range(n))
    _assert_least_integer_form(avg)
    assert haar.delta(q8, "e2").integer_form == (1, (0, 0, 0, 0, 1, 0, 0, 0))
    assert haar.char(q8, [0, 1]).total() == 2
    assert haar.upsilon_member(avg, n0) and haar.upsilon_member(even, n0)
    assert not haar.upsilon_member(f, n0)
    monkeypatch.undo()
    half = haar.constant(q8, "1/2")
    assert half == haar.LoopFunction(q8, [F(2, 4)] * n)
    assert hash(half) == hash(haar.LoopFunction(q8, [F(2, 4)] * n))


# --- covering numbers: closed values and the 3.4.x calculus ------------------

def test_covering_basic_values(suite_loops):
    for name, G in suite_loops:
        one = haar.constant(G)
        de = haar.delta(G)
        n = G.order
        assert haar.covering_number(one, de) == n, name
        assert haar.covering_number(de, de) == 1, name
        f = haar.random_function(G, random.Random(SEED))
        # covering by the point mass sums the values; covering by the
        # constant is the sup norm
        assert haar.covering_number(f, de) == f.total(), name
        assert haar.covering_number(f, one) == f.sup_norm(), name
        assert haar.covering_number(f, f) == 1, name
    # the dual route against the vertex-enumeration oracle on the primal,
    # over the small loops of acceptance criterion 4
    family = [catalog.cyclic(k) for k in range(1, 7)]
    family += [catalog.klein4(), catalog.symmetric3()]
    family += [census.find_witness(5, "non-fan"),
               census.find_witness(6, "non-fan")]
    rng = random.Random(SEED)
    for G in family:
        f, phi = haar.random_function(G, rng), haar.random_function(G, rng)
        want = test_lp.brute_minimum(haar.covering_problem(f, phi))
        assert haar.covering_number(f, phi) == want, G.table.tolist()


def test_covering_translation_pairing_associative_moufang(suite_loops, rng):
    # (_bf : phi) = (f : phi^b)  and  (f : _bphi) = (f^b : phi) for
    # arbitrary phi: true on groups and on the octonion basis loop, but NOT
    # on every fan loop -- see the boundary test below
    for name, G in suite_loops:
        if name == "s4":
            continue
        for f, phi in _samples(G, rng, 2):
            for b in (1, G.order - 1):
                lhs = haar.covering_number(haar.translate(f, b, "left"), phi)
                rhs = haar.covering_number(
                    f, haar.translate(phi, b, "left-div")
                )
                assert lhs == rhs, (name, b)
                lhs = haar.covering_number(f, haar.translate(phi, b, "left"))
                rhs = haar.covering_number(
                    haar.translate(f, b, "left-div"), phi
                )
                assert lhs == rhs, (name, b)


def test_covering_translation_pairing_invariant_comparison(suite_loops, rng):
    # with the comparison function in the invariant cone the pairing holds
    # on every fan loop, and sharpens to full translation invariance:
    # mod N0 the loop is a group, and a cone member cannot see the nuclear
    # corrections the re-association introduces
    for name, G in suite_loops:
        fan = G.analysis.fan
        for f, raw in _samples(G, rng, 2):
            phi = haar.fan_average(raw, fan)
            base = haar.covering_number(f, phi)
            for b in (1, G.order // 2, G.order - 1):
                lf = haar.translate(f, b, "left")
                assert haar.covering_number(lf, phi) == base, (name, b)
                assert haar.covering_number(
                    f, haar.translate(phi, b, "left-div")
                ) == base, (name, b)
                assert haar.covering_number(
                    f, haar.translate(phi, b, "left")
                ) == base, (name, b)


def test_translation_pairing_boundary(smash_products):
    # frozen counterexample: on a smashed product that is not diassociative
    # the unrestricted pairing fails, and fan-averaging the comparison
    # function repairs it at the very same instance
    s4 = [P for d, P in smash_products if d.name == "s4-xi-c2-q8"][0]
    rng = random.Random(4242)
    f = haar.random_function(s4, rng)
    phi = haar.random_function(s4, rng)
    b = 2
    lhs = haar.covering_number(haar.translate(f, b, "left"), phi)
    rhs = haar.covering_number(f, haar.translate(phi, b, "left-div"))
    assert lhs != rhs
    phiU = haar.fan_average(phi, s4.analysis.fan)
    lhs = haar.covering_number(haar.translate(f, b, "left"), phiU)
    rhs = haar.covering_number(f, haar.translate(phiU, b, "left-div"))
    assert lhs == rhs


def test_covering_nuclear_translation_invariance(suite_loops, rng):
    # gamma in N(G): translating either side by gamma changes nothing
    for name, G in suite_loops:
        gammas = sorted(G.analysis.nucleus.members)[:4]
        for f, phi in _samples(G, rng, 2):
            base = haar.covering_number(f, phi)
            for g in gammas:
                assert haar.covering_number(
                    haar.translate(f, g, "left"), phi
                ) == base, (name, g)
                assert haar.covering_number(
                    f, haar.translate(phi, g, "left")
                ) == base, (name, g)


def test_covering_homogeneity_subadditivity_monotonicity(suite_loops, rng):
    for name, G in suite_loops:
        for f, g in _samples(G, rng, 2):
            phi = haar.random_function(G, rng)
            cf = haar.covering_number(f, phi)
            cg = haar.covering_number(g, phi)
            alpha = F(rng.randint(1, 5), rng.randint(1, 4))
            assert haar.covering_number(f.scale(alpha), phi) == alpha * cf
            assert haar.covering_number(f.scale(0), phi) == 0
            assert haar.covering_number(f + g, phi) <= cf + cg, name
            assert cf <= haar.covering_number(f + g, phi), name  # f <= f+g


def test_covering_chain_through_upsilon(suite_loops, rng):
    # (f:phi) <= (f:omega)(omega:phi) for omega in the invariant cone
    for name, G in suite_loops:
        fan = G.analysis.fan
        for f, phi in _samples(G, rng, 2):
            omega = haar.fan_average(haar.random_function(G, rng), fan)
            assert haar.upsilon_member(omega, fan), name
            lhs = haar.covering_number(f, phi)
            rhs = haar.covering_number(f, omega) * haar.covering_number(
                omega, phi
            )
            assert lhs <= rhs, name


# --- covering numbers over direct products -----------------------------------

PRODUCT_PAIRS = [("Q8", "C2"), ("Q8", "K4"), ("O16", "C2"), ("Q8", "Q8"),
                 ("O16", "C4")]


def tensor(P, f, g, swap=False):
    """(f⊗g)(a,b) = f(a)·g(b) on P = A×B, with (a, b) at index a·|B| + b,
    the layout of products.direct_product; swap=True puts it at b·|A| + a."""
    if swap:
        return haar.LoopFunction(P, [x * y for y in g.values for x in f.values])
    return haar.LoopFunction(P, [x * y for x in f.values for y in g.values])


def _product_cases(groups8, oct16, pair):
    """Four seeded (P, f, φ, g, ψ) with f, φ on A and g, ψ on B."""
    loops = dict(groups8, O16=oct16)
    A, B = loops[pair[0]], loops[pair[1]]
    P = products.direct_product([A, B], verify=False)
    rng = random.Random(SEED)
    for _ in range(4):
        f, phi = haar.random_function(A, rng), haar.random_function(A, rng)
        g, psi = haar.random_function(B, rng), haar.random_function(B, rng)
        yield P, f, phi, g, psi


@pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids="x".join)
def test_covering_number_factors_over_direct_products(groups8, oct16, pair):
    # (f⊗g : φ⊗ψ) = (f:φ)·(g:ψ): a translate of φ⊗ψ is a product of
    # translates, a product of covers covers, and the product of two
    # dual-feasible vectors is dual-feasible, all entries being >= 0
    for P, f, phi, g, psi in _product_cases(groups8, oct16, pair):
        assert haar.covering_number(tensor(P, f, g), tensor(P, phi, psi)) == (
            haar.covering_number(f, phi) * haar.covering_number(g, psi))


def test_covering_number_product_layout_negative_control(groups8, oct16):
    # the same data in the layout b·|A| + a must break the identity somewhere
    broken = [
        pair for pair in PRODUCT_PAIRS
        for P, f, phi, g, psi in _product_cases(groups8, oct16, pair)
        if haar.covering_number(tensor(P, f, g, True), tensor(P, phi, psi, True))
        != haar.covering_number(f, phi) * haar.covering_number(g, psi)
    ]
    assert broken


# --- fan averaging and the invariant cone ------------------------------------

def test_fan_average_idempotent_and_invariant(suite_loops, rng):
    for name, G in suite_loops:
        fan = G.analysis.fan
        f = haar.random_function(G, rng)
        af = haar.fan_average(f, fan)
        assert haar.upsilon_member(af, fan), name
        assert haar.fan_average(af, fan) == af, name
        assert af.total() == f.total(), name


def test_fan_average_refuses_another_loops_subgroup(q8, oct16):
    f = haar.constant(q8, 1)
    with pytest.raises(LoopMismatch):
        haar.fan_average(f, oct16.analysis.fan)
    with pytest.raises(LoopMismatch):
        haar.upsilon_member(f, catalog.dihedral(4).analysis.center)


def test_fan_average_on_octonions_is_sign_symmetrization(oct16):
    f = haar.random_function(oct16, random.Random(11))
    af = haar.fan_average(f, oct16.analysis.fan)
    neg = {x: int(oct16.table[1, x]) for x in range(16)}  # x -> -x
    for x in range(16):
        assert af(x) == (f(x) + f(neg[x])) / 2


def test_upsilon_rejects_unbalanced_functions(oct16):
    fan = oct16.analysis.fan
    assert not haar.upsilon_member(haar.delta(oct16), fan)
    assert haar.upsilon_member(haar.char(oct16, ("e1", "-e1")), fan)
    assert not haar.upsilon_member(haar.char(oct16, ()), fan)  # zero


def test_upsilon_left_right_mismatch_guard(groups8):
    # a right-coset indicator of a non-normal subgroup is left-invariant
    # but not right-invariant; the membership test must refuse to pick a
    # side, and names the normality condition that fails, as bad input
    S3 = dict(groups8)["S3"]
    H = S3.subset({0, S3.index("s")})
    coset = {int(S3.table[x, S3.index("r")]) for x in H.members}  # H.r
    f = haar.char(S3, coset)
    with pytest.raises(NotNormal) as exc:
        haar.upsilon_member(f, H)
    assert (exc.value.condition, exc.value.witness) == ("2.7.1", ("r",))


def test_fan_average_requires_subgroup(oct16):
    f = haar.delta(oct16)
    with pytest.raises(NotASubgroup):
        haar.fan_average(f, oct16.subset({0, 2}))  # {1, e1} not closed


def test_open_question_holds_on_finite_corpus(suite_loops):
    # omega(c((c\e)x)) = omega(x) for omega in the cone: c((c\e)x) differs
    # from x by a fan element, so invariant functions cannot see it
    for name, G in suite_loops:
        fan = G.analysis.fan
        omega = haar.fan_average(
            haar.random_function(G, random.Random(SEED)), fan
        )
        for c in range(G.order):
            ci = int(G.ldiv[c, 0])  # c\e
            for x in range(G.order):
                y = int(G.table[c, int(G.table[ci, x])])
                assert omega(y) == omega(x), (name, c, x)


# --- the ratio functional and its limit --------------------------------------

def test_ratio_bounds(suite_loops, rng):
    # (f0:f)^-1 <= J_{phi,f0}(f) <= (f:f0) for references in the cone
    for name, G in suite_loops:
        f0 = haar.constant(G)
        for f, phi in _samples(G, rng, 2):
            J = haar.ratio_functional(f, f0, phi)
            assert J <= haar.covering_number(f, f0), name
            assert J >= 1 / haar.covering_number(f0, f), name


def test_ratio_two_reference_bounds(suite_loops, rng):
    # (f1:f0)^-1 (f0:f)^-1 <= J_{phi,f1}(f) <= (f:f0)(f0:f1)
    for name, G in suite_loops:
        fan = G.analysis.fan
        f0 = haar.constant(G)
        f1 = haar.fan_average(haar.random_function(G, rng), fan)
        for f, phi in _samples(G, rng, 2):
            J = haar.ratio_functional(f, f1, phi)
            up = haar.covering_number(f, f0) * haar.covering_number(f0, f1)
            lo = 1 / (
                haar.covering_number(f1, f0) * haar.covering_number(f0, f)
            )
            assert lo <= J <= up, name


def test_ratio_point_mass_linearity(suite_loops, rng):
    # at phi = delta_e the ratio functional is exactly linear (the
    # zero-defect case of the approximate-linearity bound)
    for name, G in suite_loops:
        de = haar.delta(G)
        f0 = haar.constant(G)
        for f, g in _samples(G, rng, 2):
            q1 = F(rng.randint(1, 4), rng.randint(1, 4))
            q2 = F(rng.randint(1, 4), rng.randint(1, 4))
            lhs = q1 * haar.ratio_functional(f, f0, de) + q2 * \
                haar.ratio_functional(g, f0, de)
            rhs = haar.ratio_functional(f.scale(q1) + g.scale(q2), f0, de)
            assert lhs == rhs, name


def test_ratio_approximate_linearity_coarse_comparison(suite_loops, rng):
    # sum q_j J_{phi,f0}(f_j) <= J_{phi,f0}(sum q_j f_j) + delta with the
    # defect delta = sum_j (f_j:f0) + 2 (1_G:f0) (eps = delta_1 = 1, g = 1_G)
    for name, G in suite_loops:
        f0 = haar.constant(G)
        phi = haar.char(G, range(0, G.order, 2))  # coarse comparison
        fs = [haar.random_function(G, rng) for _ in range(3)]
        qs = [F(1, rng.randint(1, 3)) for _ in fs]  # q_j <= delta_1 = 1
        delta = sum(
            (haar.covering_number(fj, f0) for fj in fs), F(0)
        ) + 2 * haar.covering_number(haar.constant(G), f0)
        lhs = sum(
            q * haar.ratio_functional(fj, f0, phi) for q, fj in zip(qs, fs)
        )
        mix = fs[0].scale(qs[0])
        for q, fj in zip(qs[1:], fs[1:]):
            mix = mix + fj.scale(q)
        rhs = haar.ratio_functional(mix, f0, phi)
        assert lhs <= rhs + delta, name


def test_finite_scale_exact_reconstruction(suite_loops, rng):
    # for phi supported at {e}: f(x) = sum_b c_b phi(bx) with
    # c_b = f(b\e)/phi(e), and the coefficient mass equals (f:phi)
    for name, G in suite_loops:
        h = F(rng.randint(1, 5), rng.randint(1, 5))
        phi = haar.delta(G).scale(h)
        f = haar.random_function(G, rng)
        coeffs = [f(int(G.ldiv[b, 0])) / h for b in range(G.order)]
        for x in range(G.order):
            acc = sum(
                (
                    coeffs[b] * phi(int(G.table[b, x]))
                    for b in range(G.order)
                ),
                F(0),
            )
            assert acc == f(x), name
        assert sum(coeffs, F(0)) == haar.covering_number(f, phi), name


def test_stabilization_heights(suite_loops, rng):
    # J_{phi,f0} is already constant along the tail: any point mass of any
    # height gives the same value, which is the limit functional's value
    for name, G in suite_loops:
        f0 = haar.constant(G)
        J = haar.haar_limit(G, f0)
        f = haar.random_function(G, rng)
        vals = {
            haar.ratio_functional(f, f0, haar.delta(G).scale(h))
            for h in (F(1), F(1, 2), F(3))
        }
        assert vals == {J(f)}, name


# --- the limit functional ----------------------------------------------------

def test_haar_functional_positivity_linearity_invariance(suite_loops, rng):
    for name, G in suite_loops:
        J = haar.haar_limit(G)
        for f, g in _samples(G, rng, 2):
            assert J(f) > 0, name
            alpha = F(rng.randint(1, 6), rng.randint(1, 4))
            assert J(f.scale(alpha)) == alpha * J(f), name
            assert J(f + g) == J(f) + J(g), name
            for b in range(G.order):
                assert J(haar.translate(f, b, "left")) == J(f), name


def test_haar_functional_values(oct16):
    J = haar.haar_limit(oct16)
    assert J(haar.constant(oct16)) == 1
    assert J(haar.delta(oct16, "e1")) == F(1, 16)
    assert J(haar.char(oct16, ("1", "-1"))) == F(1, 8)


def test_haar_functional_signed_split(oct16):
    J = haar.haar_limit(oct16)
    vals = [F(0)] * 16
    vals[0], vals[1], vals[2] = F(3, 2), F(-1, 2), F(1)
    assert J.signed(vals) == (F(3, 2) + 1 - F(1, 2)) / 16


def test_haar_functional_relative_is_reference_free(oct16):
    ref2 = haar.char(oct16, ("1", "-1")).scale(F(1, 2))
    J = haar.haar_limit(oct16)
    H = haar.haar_limit(oct16, ref2)
    g = haar.fan_average(
        haar.random_function(oct16, random.Random(5)), oct16.analysis.fan
    )
    jg = J.relative(g)
    hg = H.relative(g)
    for probe in (
        haar.delta(oct16, 3),
        haar.char(oct16, ("e2", "e3")),
        haar.random_function(oct16, random.Random(6)),
    ):
        assert jg(probe) == hg(probe)


def test_haar_functional_nonconstant_reference(oct16):
    ref = haar.char(oct16, ("1", "-1", "e1", "-e1")).scale(F(1, 2))
    H = haar.haar_limit(oct16, ref)
    assert H(haar.delta(oct16)) == F(1, 2)  # Sigma ref = 2
    assert H(haar.constant(oct16)) == 8


# --- the measure -------------------------------------------------------------

def test_invariant_measure_is_normalized_counting(suite_loops):
    for name, G in suite_loops:
        mu = haar.invariant_measure(G)
        assert mu.weights == (F(1),) * G.order, name
        assert mu.total == G.order, name
        assert mu.mass(range(G.order)) == G.order, name
        assert any("compact" in note for note in mu.notes), name


def test_invariant_measure_translation_on_subsets(oct16, rng):
    mu = haar.invariant_measure(oct16)
    for _ in range(10):
        B = rng.sample(range(16), rng.randint(1, 8))
        b = rng.randrange(16)
        bB = [int(oct16.table[b, x]) for x in B]
        assert mu.mass(bB) == mu.mass(B)
    assert mu.mass(("1", "e1")) == 2


def test_invariant_measure_counts_each_member_once(q8):
    mu = haar.invariant_measure(q8)
    assert mu.mass(["1", "1"]) == 1
    assert mu.mass(["1", 0, "1"]) == 1
    assert mu.mass(list(range(8)) * 2) == 8
    assert mu.mass([]) == 0


def test_invariant_measure_takes_the_callers_functional(oct16, q8,
                                                       monkeypatch):
    J = haar.haar_limit(oct16)
    calls = []
    solve = haar.lp.solve

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(haar.lp, "solve", counted)
    assert haar.invariant_measure(oct16, J) == haar.invariant_measure(oct16)
    assert len(calls) == 6   # the second call's own functional only
    with pytest.raises(LoopMismatch):
        haar.invariant_measure(q8, J)


def test_invariant_measure_refuses_a_functional_that_is_not_invariant(q8):
    class Weighted:
        """J(f) = Σ (x+1)·f(x): positive, but not translation invariant."""
        loop = q8

        def __call__(self, f):
            return sum((x + 1) * f(x) for x in range(q8.order))

    with pytest.raises(FanLoopCheckFailed) as exc:
        haar.invariant_measure(q8, Weighted())
    assert (exc.value.check, exc.value.witness) == (
        "measure-translation-invariance", (1, 0))


def test_verify_uniqueness_constant(oct16):
    f0 = haar.constant(oct16)
    g0 = haar.char(oct16, ("1", "-1", "e1", "-e1")).scale(F(1, 2))
    kappa = haar.verify_uniqueness(oct16, f0, g0, trials=5)
    assert kappa == F(16, 2)


# --- error paths -------------------------------------------------------------

def test_zero_comparison_and_zero_reference(oct16):
    f = haar.delta(oct16)
    zero = haar.char(oct16, ())
    with pytest.raises(ZeroComparisonFunction):
        haar.covering_number(f, zero)
    with pytest.raises(ZeroComparisonFunction):
        haar.ratio_functional(f, f, zero)
    with pytest.raises(ZeroReference):
        haar.ratio_functional(f, zero, f)
    J = haar.haar_limit(oct16)
    with pytest.raises(ZeroReference):
        J.relative(zero)


def test_haar_rejects_non_fan_loop():
    G = census.find_witness(5, "non-fan")
    assert G is not None
    with pytest.raises(NotFanLoop):
        haar.haar_limit(G)


def test_haar_rejects_reference_outside_upsilon(oct16):
    with pytest.raises(ReferenceNotInUpsilon):
        haar.haar_limit(oct16, haar.delta(oct16))


def test_covering_rejects_mismatched_loops():
    f = haar.delta(catalog.cyclic(4))
    phi = haar.delta(catalog.cyclic(4, "h"))
    with pytest.raises(LoopMismatch):
        haar.covering_number(f, phi)


def test_covering_number_refuses_a_failed_certificate(q8, monkeypatch):
    # a solver whose answer is off by one in a coordinate of D's dual (the
    # covering witness) or of D's witness y, with the optimum left as it was
    solve = lp.solve

    def perturbed(field):
        def solve_off_by_one(problem):
            sol = solve(problem)
            fields = {"witness": sol.witness, "dual": sol.dual}
            values = fields[field]
            fields[field] = (values[0] + 1,) + values[1:]
            return lp.LPSolution(sol.status, sol.optimum, fields["witness"],
                                 fields["dual"], sol.iterations)
        return solve_off_by_one

    for field, reason in (("dual", "duality gap nonzero"),
                          ("witness", "primal constraint violated")):
        monkeypatch.setattr(lp, "solve", perturbed(field))
        with pytest.raises(FanLoopCheckFailed,
                           match="covering-lp-certificate") as exc:
            haar.covering_number(haar.constant(q8), haar.delta(q8))
        assert exc.value.check == "covering-lp-certificate"
        assert exc.value.witness == (reason,)


def test_covering_number_certifies_the_one_lp_it_solves(q8, monkeypatch):
    from_form = lp.LPProblem.from_integer_form
    solve, verify = lp.solve, lp.verify_certificate
    built, solved, certified = [], [], []

    def build(*args):
        built.append(from_form(*args))
        return built[-1]

    init = lp.LPProblem.__init__

    def init_logged(self, *args):  # a problem built from Fractions counts too
        init(self, *args)
        built.append(self)

    def solve_logged(problem):
        solved.append(problem)
        return solve(problem)

    def verify_logged(problem, solution):
        certified.append(problem)
        return verify(problem, solution)

    monkeypatch.setattr(lp.LPProblem, "from_integer_form", build)
    monkeypatch.setattr(lp.LPProblem, "__init__", init_logged)
    monkeypatch.setattr(lp, "solve", solve_logged)
    monkeypatch.setattr(lp, "verify_certificate", verify_logged)
    rng = random.Random(SEED)
    for _ in range(3):
        f, phi = haar.random_function(q8, rng), haar.random_function(q8, rng)
        value = haar.covering_number(f, phi)
        assert len(built) == len(solved) == len(certified) == 1
        assert solved[0] is built[0] and certified[0] is built[0]
        assert value == -solve(built[0]).optimum
        for log in (built, solved, certified):
            log.clear()


def _rational_dual(f, phi):
    """D as the Fractions it stands for: min -f·y s.t. -Φᵀy >= -1, over the
    columns x in supp f, less each row that is 0 on every such column."""
    support = [x for x, v in enumerate(f.values) if v]
    rows = [[-phi.values[row[x]] for x in support]
            for row in f.loop.table.tolist()]
    rows = [row for row in rows if any(row)]
    return lp.LPProblem([-f.values[x] for x in support], rows,
                        [-1] * len(rows))


def test_covering_number_builds_the_rational_dual(corpus_loops, monkeypatch):
    # criterion 4's loop family and the corpus loops, with small random
    # values and wide ones (big numerators over big denominators)
    family = [(f"C{k}", catalog.cyclic(k)) for k in range(1, 7)]
    family += [("V4", catalog.klein4()), ("S3", catalog.symmetric3())]
    family += [(f"nonfan{k}", census.find_witness(k, "non-fan"))
               for k in (5, 6)]
    family += [(name, G) for name, G in corpus_loops if G.order <= 16]
    built = []
    from_form = lp.LPProblem.from_integer_form

    def build(*args):
        built.append(from_form(*args))
        return built[-1]

    monkeypatch.setattr(lp.LPProblem, "from_integer_form", build)
    rng = random.Random(SEED)

    def wide(G):
        return haar.LoopFunction(G, [
            F(rng.randrange(2**40), rng.randint(1, 2**20))
            for _ in range(G.order)])

    for name, G in family:
        pairs = _samples(G, rng, 2)
        if G.order <= 8:  # wider still would set off the bit-growth alarm
            pairs.append((wide(G), wide(G)))
        for f, phi in pairs:
            value = haar.covering_number(f, phi)
            want = _rational_dual(f, phi)
            assert built[-1] == want, name
            assert built[-1].integer_form == want.integer_form, name
            assert value == -lp.solve(want).optimum, name
    assert len(built) == sum(2 + (G.order <= 8) for _, G in family)


def _record_lps(monkeypatch):
    """(n_vars, n_constraints) of each problem built in integer form, and
    the verdict of each certificate checked."""
    shapes, verdicts = [], []
    from_form, verify = lp.LPProblem.from_integer_form, lp.verify_certificate

    def build(*args):
        problem = from_form(*args)
        shapes.append((problem.n_vars, problem.n_constraints))
        return problem

    def verify_logged(problem, solution):
        report = verify(problem, solution)
        verdicts.append(report.ok)
        return report

    monkeypatch.setattr(lp.LPProblem, "from_integer_form", build)
    monkeypatch.setattr(lp, "verify_certificate", verify_logged)
    return shapes, verdicts


def test_covering_number_of_zero_is_a_certified_empty_lp(q8, monkeypatch):
    shapes, verdicts = _record_lps(monkeypatch)
    phi = haar.random_function(q8, random.Random(SEED))
    assert haar.covering_number(haar.constant(q8, 0), phi) == 0
    assert shapes == [(0, 0)] and verdicts == [True]


def test_covering_number_of_a_point_mass_has_one_column(oct16, monkeypatch):
    shapes, verdicts = _record_lps(monkeypatch)
    rng = random.Random(SEED)
    for x in range(oct16.order):
        phi = haar.random_function(oct16, rng)
        f = haar.delta(oct16, x).scale(F(3, 2))
        # one column, and a row for each translate b with φ(bx) != 0
        assert haar.covering_number(f, phi) == F(3, 2) / max(
            phi(int(oct16.table[b, x])) for b in range(oct16.order))
        assert shapes[-1] == (1, len(phi.support()))
    assert verdicts == [True] * oct16.order


def test_haar_cross_check_point_mass_probes_are_one_by_one(q8, monkeypatch):
    # (δ_e : h·δ_e) for three heights: one column, e, and one row, the
    # translate b = e; the constant reference keeps every column and row
    shapes, verdicts = _record_lps(monkeypatch)
    haar.haar_limit(q8)
    assert shapes == [(8, 8), (1, 1)] * 3 and verdicts == [True] * 6


def test_sedenion_spot_check():
    S32 = products.cayley_dickson_basis_loop(4)
    J = haar.haar_limit(S32)
    assert J(haar.delta(S32)) == F(1, 32)
    mu = haar.invariant_measure(S32)
    assert mu.total == 32


# --- the construction-time cross-check ----------------------------------------

def test_haar_cross_check_solves_each_covering_number_once(oct16,
                                                           monkeypatch):
    # (p : h·δ_e) for two probes and three heights: six distinct LPs
    calls = []
    solve = haar.lp.solve

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(haar.lp, "solve", counted)
    haar.haar_limit(oct16)
    assert len(calls) == 6


def _wrong_closed_form(monkeypatch):
    """Σf read one too high wherever the closed form reads it."""
    closed = haar.LoopFunction.total_form

    def off_by_one(self):
        total, scale = closed(self)
        return total + scale, scale

    monkeypatch.setattr(haar.LoopFunction, "total_form", off_by_one)


def _height_dependent_covering(monkeypatch):
    """A covering number that is off by one unless φ has height 1."""
    covering = haar.covering_number

    def faulty(f, phi):
        value = covering(f, phi)
        return value if phi.sup_norm() == 1 else value + 1

    monkeypatch.setattr(haar, "covering_number", faulty)


def _quarter_reference(G):
    return haar.char(G, G.analysis.fan).scale(F(1, 4))


def test_haar_cross_check_catches_a_wrong_closed_form(oct16, monkeypatch):
    _wrong_closed_form(monkeypatch)
    with pytest.raises(FanLoopCheckFailed, match="point-mass covering mismatch"):
        haar.haar_limit(oct16)


def test_haar_cross_check_catches_height_dependence(oct16, monkeypatch):
    _height_dependent_covering(monkeypatch)
    with pytest.raises(FanLoopCheckFailed, match="point-mass covering mismatch"):
        haar.haar_limit(oct16)


@pytest.mark.parametrize("tamper", [_wrong_closed_form,
                                    _height_dependent_covering])
def test_rebased_cross_check_is_a_real_check(oct16, monkeypatch, tamper):
    J = haar.haar_limit(oct16)
    tamper(monkeypatch)
    with pytest.raises(FanLoopCheckFailed, match="point-mass covering mismatch"):
        J.rebased(_quarter_reference(oct16))


def test_rebased_solves_only_its_reference_probes(oct16, monkeypatch):
    # (g0 : h·δ_e) for three heights; the δ_e probes were certified by J
    J = haar.haar_limit(oct16)
    shapes, verdicts = _record_lps(monkeypatch)
    solved = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda p: solved.append(p) or solve(p))
    H = J.rebased(_quarter_reference(oct16))
    assert len(solved) == 3
    assert shapes == [(2, 2)] * 3 and verdicts == [True] * 3
    assert H.loop is oct16 and H.fan == J.fan


def test_rebased_equals_the_functional_built_from_scratch(q8, oct16,
                                                          suite_loops):
    rng = random.Random(SEED)
    s4 = dict(suite_loops)["s4"]
    for G in (q8, oct16, s4):
        J = haar.haar_limit(G)
        for _ in range(3):
            g0 = haar.fan_average(haar.random_function(G, rng),
                                  G.analysis.fan)
            H, want = J.rebased(g0), haar.haar_limit(G, g0)
            assert H.reference == want.reference
            for f in [haar.delta(G, x) for x in range(G.order)] + [
                    haar.random_function(G, rng) for _ in range(5)]:
                assert H(f) == want(f)


def test_rebased_refuses_a_reference_outside_upsilon(oct16, q8):
    J = haar.haar_limit(oct16)
    with pytest.raises(ReferenceNotInUpsilon):
        J.rebased(haar.delta(oct16))
    with pytest.raises(LoopMismatch):
        J.rebased(haar.constant(q8))
