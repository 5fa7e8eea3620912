"""The benchmark's four workloads: seeded inputs, ops, and their checks.

Every workload builds its source loops through the public API, writes
seeded inputs as .loop/.smash/.fn files, and hands the program only those
files (or objects parsed back from them).  Relabeling permutes the
non-identity elements and keeps every label on its element, so a relabeled
loop is an isomorphic copy with a different table layout, and label-keyed
.fn and .smash files stay valid for it.

A round is a fixed sequence of ops, the same in every round of a run, so
the benchmark can take each op's median time over the rounds.  Each op is a
(run, check) pair: the benchmark times run() alone, then passes its result
to check(), which returns False on a wrong answer.  Checks are neither
timed nor traced.

Ops that take seconds each (law checks on order-64 and order-128 loops
with a large centre or nucleus, LPs at n=32 and n=64) are left out so that
several rounds fit in one run; see README.md for the list and the reasons.
"""

import os
from fractions import Fraction
from random import Random

import numpy as np

from fanloops import catalog, census, cli, haar, lp, products, quotient

SMASH_FILES = {
    "s1": "s1-trivial-c2-c4",
    "s2": "s2-xi-c2-c4",
    "s3": "s3-phi-d4",
    "s4": "s4-xi-c2-q8",
    "s5": "s5-kappa-c4-q8",
    "s6": "s6-eta-c4-c8",
}
SMASH_PARTS = ("c2", "c4", "c8", "d4", "q8")
# Orders of the shipped smashed products (|A|·|B|).
SMASH_ORDERS = {"s1": 8, "s2": 8, "s3": 8, "s4": 16, "s5": 32, "s6": 32}

# Reduced Latin squares of order 6 (OEIS A000315).
REDUCED_LATIN_6 = 9408


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def loop_text(labels, table):
    """Loop-file text (header, then one row of labels per element)."""
    rows = [" ".join(labels[v] for v in row) for row in table.tolist()]
    return "\n".join([" ".join([str(len(labels)), *labels]), *rows]) + "\n"


def relabeled_text(G, rng):
    """Loop-file text of an isomorphic copy of G with the non-identity
    elements permuted by rng; each element keeps its label."""
    n = G.order
    new_of_old = np.array([0] + rng.sample(range(1, n), n - 1), dtype=np.intp)
    old_of_new = np.argsort(new_of_old)
    table = new_of_old[np.asarray(G.table)[np.ix_(old_of_new, old_of_new)]]
    return loop_text([G.labels[i] for i in old_of_new], table)


def random_values(n, rng):
    """Criterion-5-style function values: nonnegative rationals with
    numerators <= 6 and denominators <= 8, a quarter of them zero, never
    all zero."""
    while True:
        vals = [
            Fraction(0) if rng.random() < 0.25
            else Fraction(rng.randint(1, 6), rng.randint(1, 8))
            for _ in range(n)
        ]
        if any(vals):
            return vals


def fn_text(labels, values):
    return "".join(
        f"{lab} {v.numerator}/{v.denominator}\n"
        for lab, v in zip(labels, values) if v
    )


def fn_file_total(path):
    """Sum of the values in a .fn file, read without the program's parser."""
    total = Fraction(0)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2 and not parts[0].startswith("#"):
                total += Fraction(parts[1])
    return total


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def smash_product(key):
    data, _ = cli.parse_smash_file(str(catalog.corpus_path(SMASH_FILES[key] + ".smash")))
    return products.smashed_product(data)


def source_loops(names):
    """Build the named source loops through the public API."""
    dp = lambda *parts: products.direct_product(list(parts), verify=False)  # noqa: E731
    cd = products.cayley_dickson_basis_loop
    makers = {
        "D4": lambda: catalog.dihedral(4),
        "Q8": catalog.quaternion8,
        "oct16": catalog.octonion16,
        "cd4": lambda: cd(4),
        "cd5": lambda: cd(5),
        "oct16xC2": lambda: dp(catalog.octonion16(), catalog.cyclic(2)),
        "cd4xC2": lambda: dp(cd(4), catalog.cyclic(2)),
        "s4xC2": lambda: dp(smash_product("s4"), catalog.cyclic(2)),
    }
    for key in SMASH_FILES:
        makers[key] = lambda key=key: smash_product(key)
    return {name: makers[name]() for name in names}


def write_relabeled(workdir, sources, rng, copies):
    """copies[name] relabeled copies of every source loop, as
    <name>-<k>.loop; {name: [path, ...]}."""
    return {
        name: [write(os.path.join(workdir, f"{name}-{k}.loop"), relabeled_text(G, rng))
               for k in range(copies[name])]
        for name, G in sources.items()
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: name, round floor of the timed pass, traced rounds; subclasses
    build their inputs in __init__ (the timed set-up) and yield the same ops
    every round.  Closing ops run once, after the last round: they are
    checked and counted, but their latencies are not in the end-to-end
    figures."""

    name = ""
    min_rounds = 3
    trace_rounds = 2

    def warm_up(self):
        for run, check in self.warm_up_ops():
            check(run())

    def round(self):
        raise NotImplementedError

    def closing_ops(self):
        return []


class CheckWorkload(Workload):
    """Structure lane: cmd_check + quotient by the fan, cmd_smash, and a
    direct product with its cross-checks.  Law registry heavy, no LP.

    The loops that check in under 0.2 s get three relabeled copies each, as
    do the smash files' component loops, so that a round has enough distinct
    ops for a tail percentile with ten ops beyond it.  Q8 has one copy and
    cd4 five so that the median falls among the s5/s6 smash ops and the tail
    among the order-32 checks, inside a run of near-equal op times rather
    than on the gap between two of them, where it would flip from run to
    run."""

    name = "check"
    COPIES = {"Q8": 1, "oct16": 3, "s4": 3, "cd4": 5, "oct16xC2": 3, "s5": 3,
              "s6": 3, "s4xC2": 1, "cd5": 1, "cd4xC2": 1}
    SMASH_COPIES = 3
    PRODUCT = ("oct16", "Q8")

    def __init__(self, seed, workdir, corrupt=False):
        rng = Random(f"check:{seed}")
        sources = source_loops(self.COPIES)
        self.paths = write_relabeled(workdir, sources, rng, self.COPIES)
        self.smash = []
        for copy in range(self.SMASH_COPIES):
            smash_dir = os.path.join(workdir, f"smash-{copy}")
            os.makedirs(smash_dir, exist_ok=True)
            for part in SMASH_PARTS:
                G = cli.parse_loop_file(str(catalog.corpus_path(part + ".loop")))
                write(os.path.join(smash_dir, part + ".loop"), relabeled_text(G, rng))
            for key, stem in SMASH_FILES.items():
                text = catalog.corpus_path(stem + ".smash").read_text(encoding="utf-8")
                self.smash.append((write(os.path.join(smash_dir, stem + ".smash"), text),
                                   SMASH_ORDERS[key]))
        # A corrupted expectation: every check op then claims a law failed.
        self.expected_failed = ["2.3.1"] if corrupt else []

    def check_op(self, path):
        def run():
            code, report = cli.cmd_check(path)
            cli.render_report(report)
            G = cli.parse_loop_file(path)
            fan = G.analysis.fan
            Q = quotient.quotient(G, fan)
            return code, report["failedLaws"], G.order, len(fan), Q.order

        def check(res):
            code, failed, n, fan_size, q_order = res
            return (code == 0 and failed == self.expected_failed
                    and q_order * fan_size == n)

        return run, check

    def smash_op(self, path, order):
        def run():
            code, report = cli.cmd_smash(path)
            cli.render_report(report)
            return code, report["crossChecks"]["ok"], report["order"]

        def check(res):
            code, ok, n = res
            return code == 0 and ok and n == order

        return run, check

    def product_op(self):
        a_path, b_path = (self.paths[name][0] for name in self.PRODUCT)

        def run():
            A = cli.parse_loop_file(a_path)
            B = cli.parse_loop_file(b_path)
            P = products.direct_product([A, B])
            fan = P.analysis.fan
            Q = quotient.quotient(P, fan)
            return A.order * B.order, P.order, P.analysis.is_fan_loop, len(fan), Q.order

        def check(res):
            n, p_order, is_fan, fan_size, q_order = res
            return p_order == n and is_fan and q_order * fan_size == n

        return run, check

    def warm_up_ops(self):
        return [self.check_op(self.paths["oct16"][0])]

    def round(self):
        for paths in self.paths.values():
            for path in paths:
                yield self.check_op(path)
        for path, order in self.smash:
            yield self.smash_op(path, order)
        yield self.product_op()


class CoverWorkload(Workload):
    """Dense exact-LP lane: covering numbers (f:φ) with random f, φ on
    relabeled fan loops of order 8 and 16.

    f and φ come from one fixed draw, keyed by element label, so every seed
    solves the same LPs up to a permutation of rows and columns; --seed picks
    the relabelings of the n=8 loops, one per draw.  The n=16 loops are
    relabeled the same way for every seed: LP cost varies about 60% from
    draw to draw at n=16, and up to 90% across relabelings of one draw, and
    their five ops, half a round's time, would otherwise set the run-to-run
    spread of ops_per_s."""

    name = "cover"
    DRAWS = {"D4": 12, "Q8": 12, "s1": 12, "s2": 12, "s3": 12, "oct16": 2, "s4": 2}
    FIXED_RELABELING = ("oct16", "s4")
    CERT_EVERY = 8     # about one op in CERT_EVERY gets a certificate check
    SCALE_EVERY = 8    # about one op in SCALE_EVERY is followed by (αf:φ)

    def __init__(self, seed, workdir, corrupt=False):
        sources = source_loops(self.DRAWS)
        paths = {}
        for rng, names in ((Random(f"cover:{seed}"), set(sources) - set(self.FIXED_RELABELING)),
                           (Random("cover:fixed"), self.FIXED_RELABELING)):
            paths.update(write_relabeled(workdir, {k: sources[k] for k in sorted(names)},
                                         rng, self.DRAWS))
        draw = Random("cover:draws")
        fn_dir = os.path.join(workdir, "fn")
        os.makedirs(fn_dir, exist_ok=True)
        self.ops = []
        for name, draws in self.DRAWS.items():
            labels = sources[name].labels
            for d in range(draws):
                G = cli.parse_loop_file(paths[name][d])
                fns = []
                for tag in ("f", "phi"):
                    path = os.path.join(fn_dir, f"{name}-{d}-{tag}.fn")
                    write(path, fn_text(labels, random_values(len(labels), draw)))
                    fns.append(cli.parse_function_file(path, G))
                cert = draw.randrange(self.CERT_EVERY) == 0
                alpha = (Fraction(draw.randint(1, 6), draw.randint(1, 6))
                         if draw.randrange(self.SCALE_EVERY) == 0 else None)
                self.ops.append((fns[0], fns[1], cert, alpha))
        # A flipped verdict: certificate checks then expect a failure.
        self.expect_certified = not corrupt

    def cover_op(self, f, phi, cert, last):
        def run():
            return haar.covering_number(f, phi)

        def check(value):
            last["value"] = value
            if not isinstance(value, Fraction) or value <= 0:
                return False
            if not cert:
                return True
            problem = haar.covering_problem(f, phi)
            sol = lp.solve(problem)
            certified = (lp.verify_certificate(problem, sol).ok
                         and sol.optimum == value)
            return certified == self.expect_certified

        return run, check

    def scaled_op(self, f, phi, alpha, last):
        def run():
            return haar.covering_number(f.scale(alpha), phi)

        def check(value):
            return "value" in last and value == alpha * last.pop("value")

        return run, check

    def warm_up_ops(self):
        f, phi, _, _ = self.ops[0]
        return [self.cover_op(f, phi, True, {})]

    def round(self):
        for f, phi, cert, alpha in self.ops:
            last = {}
            yield self.cover_op(f, phi, cert, last)
            if alpha is not None:
                yield self.scaled_op(f, phi, alpha, last)


class HaarWorkload(Workload):
    """Point-mass LP lane: cmd_haar (J values, invariant measure,
    left-invariance, independence of the reference) with a seeded
    reference and seeded plus corpus .fn files."""

    name = "haar"
    # Six relabeled copies of each n=8 loop and one n=16 loop: a round has
    # enough distinct ops for a tail percentile with ten beyond it, and
    # short enough rounds for a median of several in a 25-second run.
    COPIES = {"Q8": 6, "s1": 6, "s2": 6, "s3": 6, "oct16": 1}
    CORPUS_FNS = ("chi_e1.fn", "halves.fn")   # labelled 1, -1, e1, -e1

    def __init__(self, seed, workdir, corrupt=False):
        rng = Random(f"haar:{seed}")
        sources = source_loops(self.COPIES)
        paths = write_relabeled(workdir, sources, rng, self.COPIES)
        self.cases = []
        for path in (p for copies in paths.values() for p in copies):
            stem = os.path.splitext(path)[0]
            G = cli.parse_loop_file(path)
            raw = haar.LoopFunction(G, random_values(G.order, rng))
            f0 = haar.fan_average(raw, G.analysis.fan)
            ref = write(stem + "-ref.fn", cli.serialize_function(f0))
            fns = [write(f"{stem}-f{k}.fn",
                         fn_text(G.labels, random_values(G.order, rng)))
                   for k in range(2)]
            if set(("e1", "-e1")) <= set(G.labels):
                fns += [str(catalog.corpus_path(c)) for c in self.CORPUS_FNS]
            ref_total = fn_file_total(ref)
            # J(f) = Σf / Σf0 in closed form on a finite fan loop.
            expect_j = [cli.format_rational(fn_file_total(p) / ref_total) for p in fns]
            self.cases.append((path, ref, fns, expect_j, G.order, rng.randrange(2**31)))
        # A corrupted expectation: the measure total is then off by one.
        self.total_offset = 1 if corrupt else 0

    def haar_op(self, path, ref, fns, expect_j, n, seed):
        def run():
            code, report = cli.cmd_haar(path, f0_path=ref, f_paths=fns, seed=seed)
            cli.render_report(report)
            return code, report

        def check(res):
            code, report = res
            measure = report["measure"]
            return (code == 0
                    and measure["total"] == str(n + self.total_offset)
                    and set(measure["weights"].values()) == {"1"}
                    and report["leftInvariance"]["ok"]
                    and report["independentOfReference"] is True
                    and [f["J"] for f in report["functions"]] == expect_j)

        return run, check

    def warm_up_ops(self):
        return [self.haar_op(*self.cases[0])]

    def round(self):
        for case in self.cases:
            yield self.haar_op(*case)


class CensusWorkload(Workload):
    """Tiny-table lane: each op is one loop out of the full order-6 sweep
    with the 'non-fan' filter, passed through cli.serialize_loop.  The
    closing op is census.summary(6), which sweeps all 9408 squares with the
    'all' filter and classifies each.  No laws, no LP.

    summary(6) is one call of several seconds; as an op in every round it
    would set half the workload's op time by itself, and with one sample
    per round its median over a few rounds is far noisier than that of
    thousands of short ops."""

    name = "census"
    trace_rounds = 1
    ORDER = 6
    ROUNDTRIP_EVERY = 64   # about one emitted loop in this many is re-parsed

    def __init__(self, seed, workdir, corrupt=False):
        self.rng = Random(f"census:{seed}")
        self.expected_total = REDUCED_LATIN_6 + (1 if corrupt else 0)
        self.non_fan = None

    def sweep_ops(self, order):
        it = census.enumerate_loops(census.CensusQuery(order=order, filter="non-fan"))
        seen = {"n": 0, "done": False}

        def run():
            G = next(it, None)
            if G is None:
                seen["done"] = True
                return None
            return G, cli.serialize_loop(G)

        def check(res):
            if res is None:
                if self.non_fan is None:
                    self.non_fan = seen["n"]
                return seen["n"] == self.non_fan
            seen["n"] += 1
            G, text = res
            if G.order != order or G.analysis.is_fan_loop:
                return False
            if self.rng.randrange(self.ROUNDTRIP_EVERY):
                return True
            back = cli.parse_loop_text(text)
            return back.labels == G.labels and np.array_equal(back.table, G.table)

        while not seen["done"]:
            yield run, check

    def summary_op(self, order):
        def run():
            return census.summary(order)

        def check(counts):
            return (counts["all"] == self.expected_total
                    and counts["fan-only"] + counts["non-fan"] == self.expected_total
                    and counts["non-fan"] == self.non_fan)

        return run, check

    def warm_up_ops(self):
        yield from self.sweep_ops(4)
        yield self.summary_op(4)
        self.non_fan = None

    def round(self):
        yield from self.sweep_ops(self.ORDER)

    def closing_ops(self):
        return [self.summary_op(self.ORDER)]


WORKLOADS = {w.name: w for w in (CheckWorkload, CoverWorkload, HaarWorkload, CensusWorkload)}
