"""CLI: formats round-trip byte-exactly, reports are deterministic and
decimal-free, and every exit code in the contract is reachable.
"""

import json
import shutil
import types

import pytest

from fanloops import catalog, census, cli, laws, products
from fanloops.errors import (
    DuplicateLabel,
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
    from fractions import Fraction

    assert cli.format_rational(Fraction(3, 4)) == "3/4"
    assert cli.format_rational(Fraction(5)) == "5"
    assert cli.parse_rational("7/2") == Fraction(7, 2)
    assert cli.parse_rational("-3") == -3
    with pytest.raises(ParseError):
        cli.parse_rational("0.5")
    with pytest.raises(ParseError):
        cli.parse_rational("1e-3")
    with pytest.raises(ParseError):
        cli.parse_rational("3/0")


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
        # and the parsed data is exactly the catalog instance
        assert data.n_labels == data_ref.n_labels
        assert (data.phi == data_ref.phi).all()
        assert (data.eta == data_ref.eta).all()
        assert (data.kappa == data_ref.kappa).all()
        assert (data.xi == data_ref.xi).all()


def test_function_files_round_trip_bytes(oct16):
    for name in ("chi_e1.fn", "halves.fn"):
        path = _corpus(name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        f = cli.parse_function_text(text, oct16, path=path)
        assert cli.serialize_function(f) == text, name


def test_loop_serialization_is_canonical():
    G = catalog.corpus_loop("q8.loop")
    text = cli.serialize_loop(G)
    again = cli.parse_loop_text(text)
    assert again.equals(G)
    assert cli.serialize_loop(again) == text


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
