"""Acceptance suite: one test per shipped criterion.

Each test prints a single ``PASS criterion N: ...`` (or ``FAIL``) line on the
real stdout and enforces the stated tolerance — exact rational comparison,
zero tolerance, unless the criterion itself states a runtime bound, which is
asserted with ``time.monotonic``.
"""

import contextlib
import itertools
import json
import shutil
import time
import types
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import test_census
import test_lp
from fanloops import (
    catalog,
    census,
    cli,
    haar,
    laws,
    lp,
    products,
    quotient,
)

SEED = 20260823


@pytest.fixture(scope="module")
def corpus():
    """(name, loop) for the full acceptance corpus: all groups of order <= 8,
    Cayley-Dickson basis loops k = 1..4, and the shipped smashed products."""
    loops = list(catalog.groups_up_to_8())
    for k in (1, 2, 3, 4):
        loops.append((f"cd{k}", products.cayley_dickson_basis_loop(k)))
    for data in catalog.smash_instances():
        loops.append((data.name, products.smashed_product(data)))
    return loops


@contextlib.contextmanager
def _criterion(n, label, capsys):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {n}: {label}")
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"\nPASS criterion {n}: {label} [{elapsed:.2f}s]")


def _nonzero(G, rng):
    while True:
        f = haar.random_function(G, rng)
        if not f.is_zero():
            return f


# --- 1. law suite ------------------------------------------------------------

def test_criterion_01_law_suite(corpus, capsys):
    with _criterion(1, "all registry laws hold exhaustively on the corpus",
                    capsys):
        start = time.monotonic()
        assert len(laws.law_ids()) >= 26
        for name, G in corpus:
            reports = laws.check_all(G)
            assert len(reports) == len(laws.law_ids())
            for r in reports:
                assert r.status == laws.HOLDS, (name, r.law_id, r.witness)
        assert time.monotonic() - start < 10.0


# --- 2. fan normality and quotient -------------------------------------------

def test_criterion_02_fan_quotient(corpus, capsys):
    with _criterion(2, "fan is normal; quotient by fan is an involutive-free "
                       "group-like quotient", capsys):
        start = time.monotonic()
        for name, G in corpus:
            fan = G.analysis.fan
            rep = quotient.is_normal_subloop(G, fan)
            assert rep.ok, (name, rep.condition, rep.witness)
            Q = quotient.quotient(G, fan)
            assert Q.order * len(fan.members) == G.order
            T = Q.table
            n = Q.order
            lhs = T[T[:, :, None], np.arange(n)[None, None, :]]
            rhs = T[np.arange(n)[:, None, None], T[None, :, :]]
            assert (lhs == rhs).all(), name          # exhaustive associativity
            inv_l = Q.ldiv[:, 0]
            inv_r = Q.rdiv[0, :]
            assert (inv_l == inv_r).all(), name      # two-sided inverses
            assert (T[np.arange(n), inv_l] == 0).all(), name
            assert (T[inv_l, np.arange(n)] == 0).all(), name
        # the octonion quotient: order 8, every nonidentity element of order 2
        oct16 = dict(corpus)["cd3"]
        Q = quotient.quotient(oct16, oct16.analysis.fan)
        assert Q.order == 8
        assert all(Q.table[a, a] == 0 for a in range(8))
        assert time.monotonic() - start < 1.0


# --- 3. smashed products match the closed forms -------------------------------

def test_criterion_03_smash_closed_forms(capsys):
    with _criterion(3, "every shipped smashing validates and matches the "
                       "4.4.x closed forms on all tuples", capsys):
        for data in catalog.smash_instances():
            start = time.monotonic()
            rep = products.validate_smashing(data)
            assert rep.ok, (data.name, rep.condition)
            P = products.smashed_product(data)
            failures = products.verify_smashed_product(data, P)
            assert failures == [], (data.name, failures)
            assert time.monotonic() - start < 5.0, data.name


# --- 4. covering LP against the brute-force oracle ---------------------------

def test_criterion_04_lp_oracle(capsys):
    with _criterion(4, "LP covering number equals vertex-enumeration oracle, "
                       "100 seeded trials on loops of order <= 6", capsys):
        family = [catalog.cyclic(k) for k in range(1, 7)]
        family += [catalog.klein4(), catalog.symmetric3()]
        family.append(census.find_witness(5, "non-fan"))
        family.append(census.find_witness(6, "non-fan"))
        rng = Random(SEED)
        trials = 0
        for G in family:
            for _ in range(10):
                f = haar.random_function(G, rng)
                phi = _nonzero(G, rng)
                prob = haar.covering_problem(f, phi)
                sol = lp.solve(prob)
                assert sol.status == lp.OPTIMAL
                assert test_lp.brute_minimum(prob) == sol.optimum
                assert lp.verify_certificate(prob, sol).ok
                trials += 1
        assert trials == 100


# --- 5. covering-functional identity and inequality suites -------------------

def _translation_checks(G, name, f, phi, b, cover):
    """3.4.1/3.4.2 in the class-appropriate form, plus the nuclear variants."""
    literal = G.analysis.is_group or name == "cd3"
    if literal:
        # Moufang-class: the identities hold for arbitrary translates
        assert cover(haar.translate(f, b), phi) == \
            cover(f, haar.translate(phi, b, "left-div"))
        assert cover(f, haar.translate(phi, b)) == \
            cover(haar.translate(f, b, "left-div"), phi)
    else:
        # general fan loops: compare against a fan-averaged comparison
        # function, where the pairing sharpens to full invariance
        phi_u = haar.fan_average(phi, G.analysis.fan)
        base = cover(f, phi_u)
        assert cover(haar.translate(f, b), phi_u) == base
        assert cover(f, haar.translate(phi_u, b, "left-div")) == base
        assert cover(f, haar.translate(phi_u, b)) == base
        # nuclear translates satisfy the literal identities unconditionally
        nuc = sorted(G.analysis.nucleus.members - {0})
        if nuc:
            q = nuc[b % len(nuc)]
            assert cover(haar.translate(f, q), phi) == \
                cover(f, haar.translate(phi, q, "left-div"))
            assert cover(f, haar.translate(phi, q)) == \
                cover(haar.translate(f, q, "left-div"), phi)


def test_criterion_05_covering_suites(corpus, capsys):
    with _criterion(5, "translation/subadditivity/chain/ratio laws, exact, "
                       "seeded instances per corpus fan loop", capsys):
        start = time.monotonic()
        cover = haar.covering_number
        for name, G in corpus:
            n = G.order
            instances = 100 if n <= 8 else (15 if n <= 16 else 1)
            rng = Random(f"{SEED}:{name}")
            for _ in range(instances):
                f = _nonzero(G, rng)
                g = haar.random_function(G, rng)
                phi = _nonzero(G, rng)
                psi = _nonzero(G, rng)
                alpha = Fraction(rng.randint(1, 6), rng.randint(1, 6))
                b = rng.randrange(1, n) if n > 1 else 0

                base = cover(f, phi)
                assert cover(f.scale(alpha), phi) == alpha * base   # 3.4.4
                cg = cover(g, phi)
                csum = cover(f + g, phi)
                assert csum <= base + cg                            # 3.4.3
                assert base <= csum                                 # 3.4.5
                assert base <= cover(f, psi) * cover(psi, phi)      # 3.6.1
                _translation_checks(G, name, f, phi, b, cover)      # 3.4.1/2

                f0 = haar.fan_average(f, G.analysis.fan)            # in Upsilon
                c_f0_phi = cover(f0, phi)
                assert base <= cover(f, f0) * c_f0_phi              # 3.9.1
                assert base * cover(f0, f) >= c_f0_phi              # 3.9.2
        assert time.monotonic() - start < 60.0


# --- 6. invariance of J and of the measure -----------------------------------

def test_criterion_06_invariance_and_limit(corpus, capsys):
    with _criterion(6, "J is translation invariant; point-mass reference "
                       "height is irrelevant; measure is left invariant",
                    capsys):
        for name, G in corpus:
            n = G.order
            rng = Random(f"{SEED}:inv:{name}")
            J = haar.haar_limit(G)
            for _ in range(50):
                f = haar.random_function(G, rng)
                jf = J(f)
                for b in range(n):
                    assert J(haar.translate(f, b)) == jf, (name, b)
            # J via an explicit point-mass comparison function: any height
            f0 = haar.constant(G, 1)
            for _ in range(5):
                f = _nonzero(G, rng)
                ratios = {
                    haar.ratio_functional(f, f0, haar.delta(G).scale(h))
                    for h in (Fraction(1), Fraction(1, 2), Fraction(3))
                }
                assert ratios == {J(f)}, name
            # measure: mu(bB) == mu(B)
            mu = haar.invariant_measure(G)
            for _ in range(50):
                size = rng.randint(1, n)
                B = frozenset(rng.sample(range(n), size))
                mB = mu.mass(B)
                for b in range(n):
                    shifted = frozenset(int(G.table[b, x]) for x in B)
                    assert mu.mass(shifted) == mB, (name, b)


# --- 7. uniqueness constant --------------------------------------------------

def test_criterion_07_uniqueness(corpus, capsys):
    with _criterion(7, "reference independence: H = kappa*J with "
                       "kappa = sum(f0)/sum(g0), singletons + 20 random",
                    capsys):
        for name, G in corpus:
            rng = Random(f"{SEED}:uniq:{name}")
            f0 = haar.constant(G, 1)
            g0 = haar.fan_average(_nonzero(G, rng), G.analysis.fan)
            kappa = haar.verify_uniqueness(G, f0, g0, trials=20, rng=rng)
            assert kappa == f0.total() / g0.total(), name


# --- 8. direct products ------------------------------------------------------

def test_criterion_08_direct_products(corpus, capsys):
    with _criterion(8, "nucleus/center/fan of direct products are "
                       "componentwise, 10 corpus pairs", capsys):
        base = dict(corpus)
        oct16 = base["cd3"]
        pairs = [
            (base["C2"], base["C3"]), (base["C2"], base["C4"]),
            (base["C3"], base["C4"]), (base["K4"], base["C2"]),
            (base["S3"], base["C2"]), (base["Q8"], base["C2"]),
            (base["D4"], base["C3"]), (base["C2"], oct16),
            (base["C3"], oct16), (base["S3"], base["S3"]),
        ]
        for A, B in pairs:
            P = products.direct_product([A, B])
            nB = B.order
            # index convention: (a, b) -> a*|B| + b
            assert P.label(1 * nB + 0) == f"({A.label(1)},{B.label(0)})"
            for attr in ("nucleus", "center", "fan"):
                SA = getattr(A.analysis, attr).members
                SB = getattr(B.analysis, attr).members
                SP = getattr(P.analysis, attr).members
                want = {a * nB + b for a in SA for b in SB}
                assert SP == want, (attr, A.order, B.order)


# --- 9. census counts and witnesses ------------------------------------------

def test_criterion_09_census(capsys):
    with _criterion(9, "reduced-square counts match the naive oracle; "
                       "order-5 witnesses exist", capsys):
        start = time.monotonic()
        for order, expected in ((1, 1), (2, 1), (3, 1), (4, 4), (5, 56)):
            naive = len(test_census.naive_reduced_squares(order))
            assert census.count_reduced(order) == naive == expected
        w = census.find_witness(5, "non-fan")
        assert w is not None and not w.analysis.is_fan_loop
        a, b, c = w.analysis.fan_witness
        nuc = w.analysis.nucleus.members
        assert w.t(a, b, c) not in nuc or w.p(a, b, c) not in nuc
        w2 = census.find_witness(5, "nontrivial-two-sided-inverse-split")
        assert w2 is not None
        assert any(
            int(w2.ldiv[a, 0]) != int(w2.rdiv[0, a]) for a in range(5)
        )
        assert time.monotonic() - start < 30.0


# --- 10. CLI contract --------------------------------------------------------

def test_criterion_10_cli_contract(tmp_path, monkeypatch, capsys):
    with _criterion(10, "byte round-trips and the full exit-code contract",
                    capsys):
        # round-trip byte identity for every shipped corpus file
        for name in ("c2", "c4", "c8", "d4", "q8", "oct16"):
            path = str(catalog.corpus_path(name + ".loop"))
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert cli.serialize_loop(cli.parse_loop_text(text)) == text
        oct16 = catalog.corpus_loop("oct16.loop")
        for name in ("chi_e1.fn", "halves.fn"):
            path = str(catalog.corpus_path(name))
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert cli.serialize_function(
                cli.parse_function_text(text, oct16)) == text
        for data in catalog.smash_instances():
            path = str(catalog.corpus_path(data.name + ".smash"))
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            parsed, refs = cli.parse_smash_file(path)
            assert cli.serialize_smash(parsed, *refs) == text

        # exit codes 0-7
        oct_path = str(catalog.corpus_path("oct16.loop"))
        assert cli.main(["--quiet", "check", oct_path]) == cli.EXIT_OK

        bad = tmp_path / "broken.loop"
        bad.write_text("2 a e\ne a\n")
        assert cli.main(["--quiet", "check", str(bad)]) == cli.EXIT_PARSE

        noident = tmp_path / "noident.loop"
        noident.write_text("2 a e\ne a\na e\n")
        assert cli.main(["--quiet", "check", str(noident)]) == cli.EXIT_AXIOM

        real = laws.check_all

        def tampered(G, **kw):
            out = []
            for r in real(G, **kw):
                if r.law_id == "2.2.4":
                    r = types.SimpleNamespace(
                        law_id=r.law_id, status=laws.FAILS, witness=(0, 0),
                        clause=0, tuples_checked=r.tuples_checked)
                out.append(r)
            return out

        monkeypatch.setattr(laws, "check_all", tampered)
        assert cli.main(["--quiet", "check", oct_path]) == cli.EXIT_LAW
        monkeypatch.undo()

        nonfan = tmp_path / "nonfan.loop"
        nonfan.write_text(cli.serialize_loop(census.find_witness(5, "non-fan")))
        assert cli.main(["--quiet", "haar", str(nonfan)]) == cli.EXIT_NOT_FAN

        chi = str(catalog.corpus_path("chi_e1.fn"))
        assert cli.main(
            ["--quiet", "haar", oct_path, "--f0", chi]) == cli.EXIT_UPSILON

        for name in ("s4-xi-c2-q8.smash", "c2.loop", "q8.loop"):
            shutil.copy(str(catalog.corpus_path(name)), tmp_path / name)
        smash = tmp_path / "s4-xi-c2-q8.smash"
        with open(smash, "a", encoding="utf-8") as fh:
            fh.write("e 1 a -1 -> z\n")
        assert cli.main(["--quiet", "smash", str(smash)]) == cli.EXIT_VALIDATION

        assert cli.main(["--quiet", "--cap", "8", "check", oct_path]) == \
            cli.EXIT_CAP
        assert cli.main(["--quiet", "census", "8"]) == cli.EXIT_CAP

        # reports are byte-identical across reruns under a fixed seed
        argv = ["--seed", "5", "haar", oct_path]
        assert cli.main(argv) == cli.EXIT_OK
        first = capsys.readouterr().out
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == first
        json.loads(first)
