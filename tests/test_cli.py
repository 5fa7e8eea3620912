"""CLI: formats round-trip byte-exactly, reports are deterministic and
decimal-free, and every exit code in the contract is reachable.
"""

import json
import random
import shutil
import types
from fractions import Fraction

import pytest

from fanloops import (catalog, census, cli, core, haar, laws, lp,
                      products, quotient)
from fanloops.config import order_cap
from fanloops.errors import (
    DuplicateLabel,
    InvalidOrderCap,
    NotASubgroup,
    OrderCapExceeded,
    ParseError,
)

CORPUS = str(catalog.corpus_path(""))


def _corpus(name):
    return str(catalog.corpus_path(name))


def _no_floats(report_text):
    """Fail on any float literal anywhere in a JSON report."""

    def boom(tok):
        raise AssertionError(f"float literal {tok!r} in report")

    json.loads(report_text, parse_float=boom)


# --- rationals ---------------------------------------------------------------

def test_rational_round_trip():
    assert cli.format_rational(Fraction(3, 4)) == "3/4"
    assert cli.format_rational(Fraction(5)) == "5"
    assert cli.parse_rational("7/2") == Fraction(7, 2)
    assert cli.parse_rational("-3") == -3
    with pytest.raises(ParseError):
        cli.parse_rational("0.5")
    with pytest.raises(ParseError):
        cli.parse_rational("1e-3")
    for token in ("3/0", "1/0", "abc", "0x10"):
        with pytest.raises(ParseError, match="bad rational"):
            cli.parse_rational(token)


# --- byte round-trips for every shipped corpus file --------------------------

def test_loop_files_round_trip_bytes():
    for name in ("c2", "c4", "c8", "d4", "q8", "oct16"):
        path = _corpus(name + ".loop")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        G = cli.parse_loop_text(text, path=path)
        assert cli.serialize_loop(G) == text, name


def test_smash_files_round_trip_bytes():
    for data_ref in catalog.smash_instances():
        name = data_ref.name + ".smash"
        path = _corpus(name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data, refs = cli.parse_smash_file(path)
        assert cli.serialize_smash(data, *refs) == text, name


def test_function_files_round_trip_bytes(oct16):
    for name in ("chi_e1.fn", "halves.fn"):
        path = _corpus(name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        f = cli.parse_function_text(text, oct16, path=path)
        assert cli.serialize_function(f) == text, name


@pytest.mark.parametrize("name", ["q8", "oct16"])
def test_function_text_parses_to_the_constructors_integer_form(name, request):
    G = request.getfixturevalue(name)
    rng = random.Random(4411)
    for _ in range(40):
        values, lines = [Fraction(0)] * G.order, ["# seeded"]
        for x in rng.sample(range(G.order), rng.randint(0, G.order)):
            p, q, k = rng.randint(0, 9), rng.randint(1, 12), rng.randint(1, 3)
            values[x] = Fraction(p, q)
            tok = rng.choice([f"{p * k}/{q * k}", f"+{p}/{q}", f"{p}/{q}"])
            if q == 1 and rng.random() < 0.5:
                tok = str(p)
            lines += [f"{G.label(x)} {tok}", ""]
        f = cli.parse_function_text("\n".join(lines) + "\n", G)
        want = haar.LoopFunction(G, values)
        assert f == want and f.integer_form == want.integer_form


def test_loop_serialization_is_canonical():
    G = catalog.corpus_loop("q8.loop")
    text = cli.serialize_loop(G)
    again = cli.parse_loop_text(text)
    assert again.equals(G)
    assert cli.serialize_loop(again) == text


def _row_join(G):
    """The oracle: loop-file text by the per-row formula, a header line and
    then one space-joined line of labels per table row."""
    head = " ".join([str(G.order), *G.labels])
    rows = [" ".join(G.labels[v] for v in row) for row in G.table.tolist()]
    return "\n".join([head, *rows]) + "\n"


def _serializer_loops():
    q8 = catalog.quaternion8()
    yield "order 1", catalog.cyclic(1)
    yield "long labels", core.verify_loop(
        q8.table, identity=0, labels=[f"element_{i:03d}" for i in range(8)])
    yield "non-ASCII labels", core.verify_loop(
        q8.table, identity=0,
        labels=["ε", "α₁", "β²", "γδ", "ζ-η", "θ", "ι_κ", "λμν"])
    for data in catalog.smash_instances():
        P = products.smashed_product(data)
        yield f"smash {data.name}", P           # (a,b) labels
        yield f"quotient of {data.name}", quotient.quotient(P, P.analysis.fan)
    yield from ((f"census 5 #{i}", G)
                for i, G in enumerate(census.enumerate_loops(5)))


def test_serialize_loop_matches_the_row_join_formula():
    names = []
    for name, G in _serializer_loops():
        text = cli.serialize_loop(G)
        assert text == _row_join(G), name
        again = cli.parse_loop_text(text)
        assert again.labels == G.labels and again.equals(G), name
        assert cli.serialize_loop(again) == text, name
        names.append(name)
    assert len([n for n in names if n.startswith("census 5")]) == 56
    assert any(name.startswith("quotient") for name in names)


def test_census_report_matches_the_row_join_formula(capsys):
    assert cli.main(["census", "5"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["loops"] == [_row_join(G) for G in census.enumerate_loops(5)]


# --- parse errors ------------------------------------------------------------

def test_loop_parse_errors(tmp_path):
    with pytest.raises(ParseError) as e:
        cli.parse_loop_text("x 2\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        cli.parse_loop_text("2 a b\na b\n")          # missing body row
    with pytest.raises(ParseError) as e:
        cli.parse_loop_text("2 a b\na b\nb c\n")     # unknown label
    assert e.value.line == 3
    with pytest.raises(DuplicateLabel):
        cli.parse_loop_text("2 a a\na a\na a\n")
    with pytest.raises(ParseError):
        cli.parse_loop_text("# only a comment\n")


@pytest.mark.parametrize("row, column", [
    ("b zz e", 2), ("b e zz", 3), ("b zz zz", 2),
])
def test_unknown_label_in_a_later_row_keeps_line_and_column(row, column):
    text = f"# C3\n3 e a b\ne a b\na b e\n\n{row}\n"
    with pytest.raises(ParseError, match="unknown label 'zz'") as e:
        cli.parse_loop_text(text)
    assert (e.value.line, e.value.column) == (6, column)


def test_function_parse_errors(oct16):
    with pytest.raises(ParseError):
        cli.parse_function_text("e1\n", oct16)           # missing value
    with pytest.raises(ParseError):
        cli.parse_function_text("bogus 1\n", oct16)      # unknown label
    with pytest.raises(ParseError):
        cli.parse_function_text("e1 1\ne1 2\n", oct16)   # duplicate
    with pytest.raises(ParseError):
        cli.parse_function_text("e1 -1\n", oct16)        # negative
    with pytest.raises(ParseError):
        cli.parse_function_text("e1 0.25\n", oct16)      # decimal


def test_smash_parse_errors(tmp_path):
    (tmp_path / "bad.smash").write_text("stray line\n[A] x\n")
    with pytest.raises(ParseError):
        cli.parse_smash_file(str(tmp_path / "bad.smash"))
    (tmp_path / "bad2.smash").write_text("[A] c2.loop\n[B] c2.loop\n")
    with pytest.raises(ParseError):  # missing [N]
        cli.parse_smash_file(str(tmp_path / "bad2.smash"))


@pytest.mark.parametrize("section, line, message", [
    ("phi", "a x -> g", "unknown label 'x'"),
    ("phi", "a g -> x", "unknown label 'x'"),
    ("eta", "a a g -> q", "unknown N label 'q'"),
    ("kappa", "x g g -> z", "unknown label 'x'"),
    ("xi", "a g a -> z", "expected 4 labels before '->' and one after"),
    ("xi", "a g a x -> q", "unknown N label 'q'"),  # the value is read first
])
def test_smash_table_line_errors(section, line, message, tmp_path):
    for name in ("c2.loop", "c4.loop"):
        shutil.copy(_corpus(name), tmp_path)
    with open(_corpus("s2-xi-c2-c4.smash"), encoding="utf-8") as fh:
        text = fh.read().replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    path = tmp_path / "bad.smash"
    path.write_text(text)
    with pytest.raises(ParseError) as e:
        cli.parse_smash_file(str(path))
    lineno = text.splitlines().index(line) + 1
    assert (str(e.value), e.value.line) == (f"{path}:{lineno}: {message}",
                                            lineno)


# --- exit codes, one by one --------------------------------------------------

def test_exit_0_check_octonions(capsys):
    code = cli.main(["check", _corpus("oct16.loop")])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = json.loads(out)
    a = report["analysis"]
    assert a["isFanLoop"] and not a["isGroup"]
    assert a["fanSize"] == 2 and a["fan"] == ["1", "-1"]
    assert report["failedLaws"] == []
    _no_floats(out)


def test_exit_1_parse_error(tmp_path, capsys):
    p = tmp_path / "broken.loop"
    p.write_text("2 a e\ne a\n")
    code = cli.main(["check", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PARSE
    assert report["error"] == "ParseError"


def test_exit_2_axiom_failure(tmp_path, capsys):
    # first header label is not an identity element
    p = tmp_path / "noident.loop"
    p.write_text("2 a e\ne a\na e\n")
    code = cli.main(["check", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_AXIOM
    assert report["error"] == "NoIdentity"
    # latin violation
    p2 = tmp_path / "latin.loop"
    p2.write_text("2 e a\ne e\na a\n")
    code = cli.main(["check", str(p2)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_AXIOM


def test_exit_3_inconsistent_laws(monkeypatch, capsys):
    # a universal law failing on a verified fan loop can only mean an
    # implementation/table inconsistency; fabricate one
    real = laws.check_all

    def tampered(G, **kw):
        reports = []
        for r in real(G, **kw):
            if r.law_id == "2.2.4":
                r = types.SimpleNamespace(
                    law_id=r.law_id, status=laws.FAILS, witness=(0, 0),
                    clause=0, tuples_checked=r.tuples_checked,
                )
            reports.append(r)
        return reports

    monkeypatch.setattr(laws, "check_all", tampered)
    code = cli.main(["check", _corpus("oct16.loop")])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_LAW
    assert report["inconsistentLaws"] == ["2.2.4"]


def test_exit_4_not_fan_loop(tmp_path, capsys):
    G = census.find_witness(5, "non-fan")
    p = tmp_path / "nonfan.loop"
    p.write_text(cli.serialize_loop(G))
    code = cli.main(["haar", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_NOT_FAN
    assert report["error"] == "NotFanLoop"


def test_exit_5_reference_not_in_upsilon(capsys):
    code = cli.main([
        "haar", _corpus("oct16.loop"), "--f0", _corpus("chi_e1.fn"),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_UPSILON
    assert report["error"] == "ReferenceNotInUpsilon"


def test_exit_6_validation_failed(tmp_path, capsys):
    for name in ("s4-xi-c2-q8.smash", "c2.loop", "q8.loop"):
        shutil.copy(_corpus(name), tmp_path / name)
    bad = tmp_path / "s4-xi-c2-q8.smash"
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write("e 1 a -1 -> z\n")   # xi nonzero on an N-pair: breaks 4.3.8
    code = cli.main(["smash", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_VALIDATION
    assert report["error"] == "ValidationFailed"
    assert report["condition"].startswith("4.3.8")


def test_exit_7_order_cap(capsys):
    code = cli.main(["--cap", "8", "check", _corpus("oct16.loop")])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_CAP
    code = cli.main(["census", "8"])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_CAP
    assert report["error"] == "OrderCapExceeded"


def test_exit_7_cap_above_index_width(monkeypatch, capsys):
    # element indices are int16: a larger cap would let products wrap
    code = cli.main(["--cap", "40000", "check", _corpus("c2.loop")])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_CAP
    assert report["error"] == "OrderCapExceeded"
    monkeypatch.setenv("FANLOOP_CAP", "40000")
    code = cli.main(["check", _corpus("c2.loop")])
    assert code == cli.EXIT_CAP
    capsys.readouterr()
    monkeypatch.setenv("FANLOOP_CAP", "32767")
    assert cli.main(["--quiet", "check", _corpus("c2.loop")]) == cli.EXIT_OK


def test_exit_7_smash_cap_before_any_table(monkeypatch, tmp_path):
    # two C17 factors are each within the cap of 256, their product is not:
    # the parser refuses it before building a table of (17·17)² ξ entries,
    # and the cap wins over a parse error further down the file
    monkeypatch.delenv("FANLOOP_CAP", raising=False)

    def unreachable(name, A, B):
        raise AssertionError(f"default {name} table built for order "
                             f"{A.order * B.order}")

    monkeypatch.setattr(products, "default_table", unreachable)
    (tmp_path / "c17.loop").write_text(cli.serialize_loop(catalog.cyclic(17)))
    trivial = ("[A] c17.loop\n[B] c17.loop\n[N]\nlabels: e\ninto-a: e\n"
               "into-b: e\n[phi]\n[eta]\n[kappa]\n[xi]\n")
    for name, text in (("trivial", trivial), ("bad-line", trivial + "x\n")):
        path = tmp_path / f"{name}.smash"
        path.write_text(text)
        code, report = cli.cmd_smash(str(path))
        assert code == cli.EXIT_CAP, report
        assert report["error"] == "SizeCapExceeded"
        assert report["message"] == "order 289 exceeds cap 256"


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_exit_7_non_integer_cap_from_env(value, monkeypatch, capsys):
    monkeypatch.setenv("FANLOOP_CAP", value)
    for argv in (["check", _corpus("c2.loop")], ["census", "3"]):
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_CAP
        assert report["error"] == "InvalidOrderCap"
        assert repr(value) in report["message"]


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_exit_7_non_integer_cap_option(value, capsys):
    for argv in (["--cap", value, "check", _corpus("c2.loop")],
                 ["--cap", value, "census", "3"]):
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_CAP
        assert report["error"] == "InvalidOrderCap"
    with pytest.raises(InvalidOrderCap):
        order_cap(1.5)  # a library caller's float is not truncated either


# --- unreadable input files: exit 1, never a traceback -----------------------

def test_exit_1_missing_loop_file(tmp_path, capsys):
    path = str(tmp_path / "absent.loop")
    code = cli.main(["check", path])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PARSE
    assert (report["error"], report["path"]) == ("ParseError", path)


def test_exit_1_non_utf8_loop_file(tmp_path, capsys):
    p = tmp_path / "latin1.loop"
    p.write_bytes(b"2 e \xe9\ne \xe9\n\xe9 e\n")
    code = cli.main(["check", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PARSE
    assert (report["error"], report["path"]) == ("ParseError", str(p))


def test_exit_1_smash_factor_file_missing(tmp_path, capsys):
    shutil.copy(_corpus("s4-xi-c2-q8.smash"), tmp_path)
    shutil.copy(_corpus("c2.loop"), tmp_path)  # [B] q8.loop is absent
    code = cli.main(["smash", str(tmp_path / "s4-xi-c2-q8.smash")])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PARSE
    assert report["error"] == "ParseError"
    assert report["path"].endswith("q8.loop")


@pytest.mark.parametrize("command", ["check", "haar"])
def test_exit_1_zero_order_loop_file(command, tmp_path, capsys):
    p = tmp_path / "zero.loop"
    p.write_text("0\n")
    code = cli.main([command, str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PARSE
    assert (report["error"], report["line"]) == ("ParseError", 1)


def test_exit_1_smash_out_path_unwritable(tmp_path, capsys):
    out = str(tmp_path / "absent" / "s1.loop")
    code = cli.main(["smash", _corpus("s1-trivial-c2-c4.smash"), "--out", out])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_PARSE
    assert (report["error"], report["path"]) == ("ParseError", out)


# --- check on a valid non-fan loop: expected failures, not inconsistency -----

def test_check_non_fan_loop_is_consistent(tmp_path, capsys):
    G = census.find_witness(5, "non-fan")
    p = tmp_path / "nonfan.loop"
    p.write_text(cli.serialize_loop(G))
    code = cli.main(["check", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert set(report["failedLaws"]) == {"2.1.9-t", "2.1.9-p"}
    assert report["inconsistentLaws"] == []
    statuses = {r["id"]: r["status"] for r in report["laws"]}
    assert statuses["2.2.2"] == "not-applicable"


# --- haar command ------------------------------------------------------------

def test_haar_report_values(capsys):
    code = cli.main([
        "haar", _corpus("oct16.loop"),
        "-f", _corpus("chi_e1.fn"), "-f", _corpus("halves.fn"),
    ])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = json.loads(out)
    js = {r["path"].split("/")[-1]: r["J"] for r in report["functions"]}
    assert js["chi_e1.fn"] == "1/16"
    assert js["halves.fn"] == "1/8"
    assert report["measure"]["total"] == "16"
    assert set(report["measure"]["weights"].values()) == {"1"}
    assert report["leftInvariance"]["ok"]
    assert report["leftInvariance"]["translationsChecked"] == 32
    assert report["independentOfReference"] is True
    _no_floats(out)


def test_haar_with_invariant_reference(capsys):
    code = cli.main([
        "haar", _corpus("oct16.loop"), "--f0", _corpus("halves.fn"),
        "-f", _corpus("chi_e1.fn"),
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert report["reference"]["total"] == "2"
    assert report["functions"][0]["J"] == "1/2"


def test_haar_reports_are_byte_identical(capsys):
    argv = ["--seed", "7", "haar", _corpus("oct16.loop"),
            "-f", _corpus("halves.fn")]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)
    assert json.loads(out1)["seed"] == 7


@pytest.mark.parametrize("f0, solves", [(None, 9), ("halves.fn", 9)])
def test_haar_solves_each_functional_once(monkeypatch, f0, solves):
    # 6 LPs for J, three for its reference and three for δ_e, and 3 for H,
    # rebased on J, whose δ_e probes J has certified; the measure is read
    # off J whatever its reference, so --f0 builds no third functional
    calls = []
    solve = lp.solve

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counted)
    code, report = cli.cmd_haar(_corpus("oct16.loop"),
                                f0_path=f0 and _corpus(f0))
    assert code == cli.EXIT_OK and report["measure"]["total"] == "16"
    assert len(calls) == solves


# --- smash command -----------------------------------------------------------

def test_smash_command_builds_product(tmp_path, capsys):
    out_file = tmp_path / "s4.loop"
    code = cli.main([
        "smash", _corpus("s4-xi-c2-q8.smash"), "--out", str(out_file),
    ])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["order"] == 16
    assert report["crossChecks"]["ok"]
    assert report["analysis"]["isFanLoop"]
    assert not report["analysis"]["isGroup"]
    # the emitted file re-parses to the same loop, byte for byte
    text = out_file.read_text()
    assert text == report["loopFile"]
    G = cli.parse_loop_text(text)
    assert cli.serialize_loop(G) == text
    _no_floats(out)


# --- census command ----------------------------------------------------------

def test_census_command(capsys):
    code = cli.main(["census", "5", "--filter", "non-fan", "--limit", "3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["emitted"] == 3
    assert report["summary"] == "reduced=56"
    for text in report["loops"]:
        G = cli.parse_loop_text(text)
        assert not G.analysis.is_fan_loop
    _no_floats(out)


def test_census_limit_zero_emits_nothing(capsys):
    code = cli.main(["census", "5", "--limit", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert (report["emitted"], report["loops"]) == (0, [])


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_census_refuses_a_negative_limit(value, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["census", "5", "--limit", value])
    assert e.value.code == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and "--limit" in out.err


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_census_refuses_an_order_below_1(value, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["census", value])
    assert e.value.code == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and "argument order: must be an integer of at " \
        f"least 1, got {value!r}" in out.err


@pytest.mark.parametrize("argv", [[], ["frobnicate"]],
                         ids=["missing", "unknown"])
def test_exit_1_malformed_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: fanloops")


@pytest.mark.parametrize("argv,option", [
    (["haar", _corpus("oct16.loop"), "--f", _corpus("chi_e1.fn")], "--f"),
    (["census", "4", "--lim", "1"], "--lim"),
], ids=["f-for-f0", "lim-for-limit"])
def test_long_options_are_never_abbreviated(argv, option, capsys):
    # --f would expand to --f0 and read the function file as the reference
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == cli.EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: {option} " in out.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["census", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fanloops census")


def test_census_reports_are_byte_identical(capsys):
    cli.main(["census", "5", "--limit", "4"])
    out1 = capsys.readouterr().out
    cli.main(["census", "5", "--limit", "4"])
    out2 = capsys.readouterr().out
    assert out1 == out2


# --- quiet mode --------------------------------------------------------------

def test_quiet_mode(capsys):
    code = cli.main(["--quiet", "check", _corpus("oct16.loop")])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == ""


def test_smash_cross_check_failure_exits_3(monkeypatch, capsys):
    failure = ("4.4.1", (1, 2, 3))
    monkeypatch.setattr(products, "verify_smashed_product",
                        lambda data, P: [failure])
    code = cli.main(["smash", _corpus("s4-xi-c2-q8.smash")])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_LAW
    assert report["crossChecks"] == {
        "ok": False, "failures": [{"id": "4.4.1", "witness": [1, 2, 3]}],
    }


def test_smash_verifies_the_product_once(monkeypatch):
    calls = []
    verify = products.verify_smashed_product

    def counted(data, P):
        calls.append(data.name)
        return verify(data, P)

    monkeypatch.setattr(products, "verify_smashed_product", counted)
    code, report = cli.cmd_smash(_corpus("s6-eta-c4-c8.smash"))
    assert code == cli.EXIT_OK and report["crossChecks"]["ok"]
    assert len(calls) == 1
