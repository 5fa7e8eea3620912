"""Command-line front end: file formats, analysis commands, reports.

Formats (all plain text, diffable):
  loop file      header "n label0 ... label{n-1}" (first label = identity),
                 then n rows of n labels (row a lists a*b in header order);
                 lines starting with '#' are comments.
  function file  "label value" pairs, one per line; unlisted labels are 0;
                 values are exact rationals "p/q" (q omitted when 1),
                 decimals are rejected.
  smash file     sectioned: [A] path, [B] path (relative to the smash
                 file), [N] with "labels:", "into-a:", "into-b:" lines,
                 then [phi]/[eta]/[kappa]/[xi] exception tables by label
                 ("u b -> b2" etc.); omitted entries default to the
                 identity action / identity of N.

Every command prints one JSON report (stable keys, rationals as "p/q"
strings, never decimals) and returns an exit code from the contract:
0 ok, 1 parse error, 2 axiom failure, 3 law failure, 4 not a fan loop,
5 reference not in Upsilon, 6 smashing validation failure, 7 order cap.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from random import Random

import numpy as np

from . import census, core, haar, laws, products
from .config import DEFAULT_SEED, order_cap
from .errors import (
    AxiomError,
    DuplicateLabel,
    NotFanLoop,
    OrderCapExceeded,
    ParseError,
    ReferenceNotInUpsilon,
    ValidationFailed,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_AXIOM = 2
EXIT_LAW = 3
EXIT_NOT_FAN = 4
EXIT_UPSILON = 5
EXIT_VALIDATION = 6
EXIT_CAP = 7


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(token, line=None, path=None):
    if "." in token or "e" in token.lower() and token.lstrip("+-")[:1].isdigit():
        raise ParseError(
            f"decimal literals are forbidden, use p/q: {token!r}",
            line=line, path=path,
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {token!r}", line=line, path=path)


# ---------------------------------------------------------------------------
# loop files
# ---------------------------------------------------------------------------

def _content_lines(text):
    """(lineno, line) pairs with comments and blank lines removed."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((i, stripped))
    return out

def parse_loop_text(text, path=None, cap=None):
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty loop file", path=path)
    lineno, header = lines[0]
    tokens = header.split()
    try:
        n = int(tokens[0])
    except ValueError:
        raise ParseError(
            f"header must start with the order, got {tokens[0]!r}",
            line=lineno, column=1, path=path,
        )
    labels = tokens[1:]
    if len(labels) != n:
        raise ParseError(
            f"header lists {len(labels)} labels, expected {n}",
            line=lineno, path=path,
        )
    seen = {}
    for col, lab in enumerate(labels, start=2):
        if lab in seen:
            raise DuplicateLabel(lab, line=lineno, column=col, path=path)
        seen[lab] = col
    index = {lab: i for i, lab in enumerate(labels)}
    if len(lines) - 1 != n:
        raise ParseError(
            f"expected {n} body rows, found {len(lines) - 1}",
            line=lineno, path=path,
        )
    table = np.empty((n, n), dtype=np.int16)
    for a, (lno, row) in enumerate(lines[1:]):
        cells = row.split()
        if len(cells) != n:
            raise ParseError(
                f"row {a} has {len(cells)} entries, expected {n}",
                line=lno, path=path,
            )
        for b, lab in enumerate(cells):
            if lab not in index:
                raise ParseError(
                    f"unknown label {lab!r}",
                    line=lno, column=b + 1, path=path,
                )
            table[a, b] = index[lab]
    # first header label is the identity by contract
    return core.verify_loop(table, identity=0, labels=labels, cap=cap)


def _read_text(path):
    """The file's UTF-8 text; an unreadable file is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}",
                         path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         path=path) from exc


def parse_loop_file(path, cap=None):
    return parse_loop_text(_read_text(path), path=path, cap=cap)


def serialize_loop(G):
    """Canonical loop-file text: byte-stable, re-parses to the same loop."""
    head = " ".join([str(G.order), *G.labels])
    rows = [
        " ".join(G.labels[int(G.table[a, b])] for b in range(G.order))
        for a in range(G.order)
    ]
    return "\n".join([head, *rows]) + "\n"


# ---------------------------------------------------------------------------
# function files
# ---------------------------------------------------------------------------

def parse_function_text(text, G, path=None):
    vals = [Fraction(0)] * G.order
    assigned = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"expected 'label value', got {line!r}",
                line=lineno, path=path,
            )
        lab, tok = parts
        try:
            i = G.index(lab)
        except (KeyError, ValueError):
            raise ParseError(
                f"unknown element label {lab!r}", line=lineno, path=path
            )
        if i in assigned:
            raise ParseError(
                f"label {lab!r} assigned twice", line=lineno, path=path
            )
        assigned.add(i)
        v = parse_rational(tok, line=lineno, path=path)
        if v < 0:
            raise ParseError(
                f"negative value {tok!r}", line=lineno, path=path
            )
        vals[i] = v
    return haar.LoopFunction(G, vals)


def parse_function_file(path, G):
    return parse_function_text(_read_text(path), G, path=path)


def serialize_function(f):
    """Canonical function-file text: nonzero entries in element order."""
    lines = [
        f"{f.loop.label(i)} {format_rational(v)}"
        for i, v in enumerate(f.values)
        if v != 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# smash files
# ---------------------------------------------------------------------------

_SMASH_SECTIONS = ("A", "B", "N", "phi", "eta", "kappa", "xi")


def _split_sections(text, path):
    sections = {}
    current = None
    for lineno, line in _content_lines(text):
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise ParseError("unterminated section header",
                                 line=lineno, path=path)
            name = line[1:close].strip()
            if name not in _SMASH_SECTIONS:
                raise ParseError(f"unknown section [{name}]",
                                 line=lineno, path=path)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]",
                                 line=lineno, path=path)
            current = name
            sections[name] = []
            rest = line[close + 1:].strip()
            if rest:
                sections[name].append((lineno, rest))
        else:
            if current is None:
                raise ParseError("content before first section",
                                 line=lineno, path=path)
            sections[current].append((lineno, line))
    for required in ("A", "B", "N"):
        if required not in sections:
            raise ParseError(f"missing section [{required}]", path=path)
    return sections


def _keyed_line(entries, key, path):
    for lineno, line in entries:
        if line.startswith(key + ":"):
            return lineno, line[len(key) + 1:].split()
    raise ParseError(f"[N] section is missing '{key}:'", path=path)


def _parse_arrow(line, lineno, path, nargs):
    if "->" not in line:
        raise ParseError(f"expected 'labels -> label', got {line!r}",
                         line=lineno, path=path)
    left, _, right = line.partition("->")
    args = left.split()
    value = right.split()
    if len(args) != nargs or len(value) != 1:
        raise ParseError(
            f"expected {nargs} labels before '->' and one after",
            line=lineno, path=path,
        )
    return args, value[0]


def parse_smash_file(path, cap=None):
    base = os.path.dirname(os.path.abspath(path))
    sections = _split_sections(_read_text(path), path)

    def loop_from(section):
        entries = sections[section]
        if len(entries) != 1 or len(entries[0][1].split()) != 1:
            raise ParseError(f"[{section}] must hold exactly one path",
                             path=path)
        rel = entries[0][1]
        return parse_loop_file(os.path.join(base, rel), cap=cap), rel

    A, a_ref = loop_from("A")
    B, b_ref = loop_from("B")

    _, n_labels = _keyed_line(sections["N"], "labels", path)
    if not n_labels:
        raise ParseError("[N] labels: list is empty", path=path)
    lineno_a, into_a_labels = _keyed_line(sections["N"], "into-a", path)
    lineno_b, into_b_labels = _keyed_line(sections["N"], "into-b", path)
    if len(into_a_labels) != len(n_labels) or len(into_b_labels) != len(n_labels):
        raise ParseError("embedding maps must list one image per N label",
                         path=path)
    n_index = {lab: i for i, lab in enumerate(n_labels)}
    if len(n_index) != len(n_labels):
        raise ParseError("duplicate N label", path=path)

    def resolve(loop, lab, lineno):
        try:
            return loop.index(lab)
        except (KeyError, ValueError):
            raise ParseError(f"unknown label {lab!r}", line=lineno, path=path)

    into_a = [resolve(A, lab, lineno_a) for lab in into_a_labels]
    into_b = [resolve(B, lab, lineno_b) for lab in into_b_labels]

    nA, nB, nN = A.order, B.order, len(n_labels)
    phi = np.tile(np.arange(nB, dtype=np.int16), (nA, 1))
    eta = np.zeros((nA, nA, nB), dtype=np.int16)
    kappa = np.zeros((nA, nB, nB), dtype=np.int16)
    xi = np.zeros((nA, nB, nA, nB), dtype=np.int16)

    for lineno, line in sections.get("phi", []):
        (u, b), out = _parse_arrow(line, lineno, path, 2)
        phi[resolve(A, u, lineno), resolve(B, b, lineno)] = \
            resolve(B, out, lineno)
    def n_resolve(lab, lineno):
        if lab not in n_index:
            raise ParseError(f"unknown N label {lab!r}",
                             line=lineno, path=path)
        return n_index[lab]

    for lineno, line in sections.get("eta", []):
        (v, u, b), out = _parse_arrow(line, lineno, path, 3)
        eta[resolve(A, v, lineno), resolve(A, u, lineno),
            resolve(B, b, lineno)] = n_resolve(out, lineno)
    for lineno, line in sections.get("kappa", []):
        (u, c, b), out = _parse_arrow(line, lineno, path, 3)
        kappa[resolve(A, u, lineno), resolve(B, c, lineno),
              resolve(B, b, lineno)] = n_resolve(out, lineno)
    for lineno, line in sections.get("xi", []):
        (u, c, v, b), out = _parse_arrow(line, lineno, path, 4)
        xi[resolve(A, u, lineno), resolve(B, c, lineno),
           resolve(A, v, lineno), resolve(B, b, lineno)] = \
            n_resolve(out, lineno)

    name = os.path.splitext(os.path.basename(path))[0]
    return products.SmashingData(
        A=A, B=B, n_labels=tuple(n_labels), into_a=into_a, into_b=into_b,
        phi=phi, eta=eta, kappa=kappa, xi=xi, name=name,
    ), (a_ref, b_ref)


def serialize_smash(data, a_ref, b_ref):
    """Canonical smash-file text (exception entries in index order)."""
    A, B = data.A, data.B
    out = [f"[A] {a_ref}", f"[B] {b_ref}", "[N]",
           "labels: " + " ".join(data.n_labels),
           "into-a: " + " ".join(A.label(int(i)) for i in data.into_a),
           "into-b: " + " ".join(B.label(int(i)) for i in data.into_b)]
    out.append("[phi]")
    for u in range(A.order):
        for b in range(B.order):
            img = int(data.phi[u, b])
            if img != b:
                out.append(f"{A.label(u)} {B.label(b)} -> {B.label(img)}")
    out.append("[eta]")
    for v in range(A.order):
        for u in range(A.order):
            for b in range(B.order):
                g = int(data.eta[v, u, b])
                if g:
                    out.append(
                        f"{A.label(v)} {A.label(u)} {B.label(b)}"
                        f" -> {data.n_labels[g]}"
                    )
    out.append("[kappa]")
    for u in range(A.order):
        for c in range(B.order):
            for b in range(B.order):
                g = int(data.kappa[u, c, b])
                if g:
                    out.append(
                        f"{A.label(u)} {B.label(c)} {B.label(b)}"
                        f" -> {data.n_labels[g]}"
                    )
    out.append("[xi]")
    for u in range(A.order):
        for c in range(B.order):
            for v in range(A.order):
                for b in range(B.order):
                    g = int(data.xi[u, c, v, b])
                    if g:
                        out.append(
                            f"{A.label(u)} {B.label(c)} {A.label(v)}"
                            f" {B.label(b)} -> {data.n_labels[g]}"
                        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _labels_of(eset):
    return list(eset.labels())


def analysis_report(G):
    a = G.analysis

    def witness(w):
        return None if w is None else [G.label(int(i)) for i in w]

    return {
        "order": G.order,
        "labels": list(G.labels),
        "isLoop": a.is_loop,
        "isGroup": a.is_group,
        "isCommutative": a.is_commutative,
        "isFanLoop": a.is_fan_loop,
        "isCentralFanLoop": a.is_central_fan_loop,
        "com": _labels_of(a.com),
        "nucleusLeft": _labels_of(a.nucleus_l),
        "nucleusMiddle": _labels_of(a.nucleus_m),
        "nucleusRight": _labels_of(a.nucleus_r),
        "nucleus": _labels_of(a.nucleus),
        "center": _labels_of(a.center),
        "fan": _labels_of(a.fan),
        "fanSize": len(a.fan),
        "tRange": _labels_of(a.t_range),
        "pRange": _labels_of(a.p_range),
        "nonAssocWitness": witness(a.non_assoc_witness),
        "fanWitness": witness(a.fan_witness),
        "centralWitness": witness(a.central_witness),
    }


def laws_report(reports):
    return [
        {
            "id": r.law_id,
            "status": r.status,
            "witness": r.witness,
            "clause": r.clause,
            "tuplesChecked": r.tuples_checked,
        }
        for r in reports
    ]


def render_report(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _error_report(command, exc):
    out = {"command": command, "error": type(exc).__name__,
           "message": str(exc)}
    for attr in ("line", "column", "path", "condition", "witness"):
        v = getattr(exc, attr, None)
        if v is not None:
            out[attr] = v if not isinstance(v, tuple) else list(v)
    return out


def _classify_exit(exc):
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, OrderCapExceeded):
        return EXIT_CAP
    if isinstance(exc, AxiomError):
        return EXIT_AXIOM
    if isinstance(exc, NotFanLoop):
        return EXIT_NOT_FAN
    if isinstance(exc, ReferenceNotInUpsilon):
        return EXIT_UPSILON
    if isinstance(exc, ValidationFailed):
        return EXIT_VALIDATION
    raise exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(path, cap=None):
    """verify_loop + classify + check_all.  (code, report)."""
    try:
        G = parse_loop_file(path, cap=order_cap(cap))
    except Exception as exc:  # noqa: BLE001 - mapped to exit contract
        return _classify_exit(exc), _error_report("check", exc)
    reports = laws.check_all(G)
    failed = [r.law_id for r in reports if r.status == laws.FAILS]
    # Exit 3 means the law suite disagrees with the classification (a table
    # or implementation inconsistency).  On a non-fan loop the membership
    # laws 2.1.9-t/2.1.9-p are *expected* to fail; everything else failing,
    # or a fan loop failing anything, is an inconsistency.
    membership = {"2.1.9-t", "2.1.9-p"}
    if G.analysis.is_fan_loop:
        inconsistent = list(failed)
    else:
        inconsistent = [i for i in failed if i not in membership]
        if not any(i in membership for i in failed):  # pragma: no cover
            inconsistent.append("membership-vs-classification")
    code = EXIT_OK if not inconsistent else EXIT_LAW
    return code, {
        "command": "check",
        "path": path,
        "analysis": analysis_report(G),
        "laws": laws_report(reports),
        "failedLaws": failed,
        "inconsistentLaws": inconsistent,
    }


def cmd_haar(loop_path, f0_path=None, f_paths=(), seed=None, cap=None):
    """J values, measure, left-invariance, independence-of-reference."""
    seed = DEFAULT_SEED if seed is None else seed
    try:
        G = parse_loop_file(loop_path, cap=order_cap(cap))
        f0 = (parse_function_file(f0_path, G)
              if f0_path else haar.constant(G, 1))
        J = haar.haar_limit(G, f0)
        fns = [(p, parse_function_file(p, G)) for p in f_paths]
    except Exception as exc:  # noqa: BLE001
        return _classify_exit(exc), _error_report("haar", exc)

    mu = haar.invariant_measure(G)
    # independence of the reference (J_g must not depend on f0): rebuild
    # with a second seeded reference and compare J_g for g = fan-average
    # of a random function
    rng = Random(seed)
    g0 = haar.fan_average(haar.random_function(G, rng), G.analysis.fan)
    H = haar.haar_limit(G, g0)
    g = haar.fan_average(haar.random_function(G, rng), G.analysis.fan)
    probes = [f for _, f in fns] or [haar.delta(G)]
    independent = all(
        J.relative(g)(f) == H.relative(g)(f) for f in probes
    )

    invariance_checked = 0
    invariant = True
    for f in probes:
        jf = J(f)
        for b in range(G.order):
            invariance_checked += 1
            if J(haar.translate(f, b, "left")) != jf:
                invariant = False  # pragma: no cover - theorem-backed
    report = {
        "command": "haar",
        "path": loop_path,
        "seed": seed,
        "reference": {
            "path": f0_path,
            "total": format_rational(f0.total()),
        },
        "functions": [
            {"path": p, "J": format_rational(J(f))} for p, f in fns
        ],
        "measure": {
            "weights": {
                G.label(i): format_rational(w)
                for i, w in enumerate(mu.weights)
            },
            "total": format_rational(mu.total),
            "notes": list(mu.notes),
        },
        "leftInvariance": {
            "ok": invariant,
            "translationsChecked": invariance_checked,
        },
        "independentOfReference": independent,
    }
    code = EXIT_OK if invariant and independent else EXIT_LAW
    return code, report


def cmd_smash(data_path, out_path=None, cap=None):
    """Validate a smashing file, build the product, emit file + report."""
    try:
        data, _refs = parse_smash_file(data_path, cap=order_cap(cap))
        P = products.smashed_product(data, cap=order_cap(cap))
    except Exception as exc:  # noqa: BLE001
        return _classify_exit(exc), _error_report("smash", exc)
    loop_text = serialize_loop(P)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(loop_text)
    failures = products.verify_smashed_product(data, P)
    report = {
        "command": "smash",
        "path": data_path,
        "order": P.order,
        "analysis": analysis_report(P),
        "crossChecks": {
            "ok": not failures,
            "failures": [
                {"id": cid, "witness": list(w)} for cid, w in failures
            ],
        },
        "loopFile": loop_text,
    }
    return (EXIT_OK if not failures else EXIT_LAW), report


def cmd_census(order, filter="all", limit=None, cap=None):
    """Enumerate reduced squares; stream loop files inside the report."""
    try:
        query = census.CensusQuery(order=order, filter=filter, limit=limit)
        loops = [serialize_loop(G) for G in census.enumerate_loops(query)]
        reduced_total = census.count_reduced(order)
    except Exception as exc:  # noqa: BLE001
        return _classify_exit(exc), _error_report("census", exc)
    return EXIT_OK, {
        "command": "census",
        "order": order,
        "filter": filter,
        "limit": limit,
        "emitted": len(loops),
        "summary": f"reduced={reduced_total}",
        "loops": loops,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fanloops",
        description="finite fan-loop workbench",
    )
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for randomized property suites")
    ap.add_argument("--cap", type=int, default=None,
                    help="raise the order cap (mirrors FANLOOP_CAP)")
    ap.add_argument("--quiet", action="store_true",
                    help="exit-code-only mode")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify and classify a loop file")
    p.add_argument("path")

    p = sub.add_parser("haar", help="invariant functional and measure")
    p.add_argument("path")
    p.add_argument("--f0", dest="f0", default=None,
                   help="reference function file (default: constant 1)")
    p.add_argument("-f", dest="fns", action="append", default=[],
                   help="function file to evaluate (repeatable)")

    p = sub.add_parser("smash", help="build a smashed product")
    p.add_argument("path")
    p.add_argument("--out", dest="out", default=None,
                   help="write the product loop file here")

    p = sub.add_parser("census", help="enumerate small loops")
    p.add_argument("order", type=int)
    p.add_argument("--filter", default="all", choices=census.FILTERS)
    p.add_argument("--limit", type=int, default=None)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        code, report = cmd_check(args.path, cap=args.cap)
    elif args.command == "haar":
        code, report = cmd_haar(args.path, f0_path=args.f0,
                                f_paths=args.fns, seed=args.seed,
                                cap=args.cap)
    elif args.command == "smash":
        code, report = cmd_smash(args.path, out_path=args.out, cap=args.cap)
    else:
        code, report = cmd_census(args.order, filter=args.filter,
                                  limit=args.limit, cap=args.cap)
    if not args.quiet:
        sys.stdout.write(render_report(report))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
