"""Byte-identity of command reports: a manifest of sha256 sums.

Each command case renders one report through cli.main in-process, with the
same command line, working directory and input file names as the shell
commands it stands for, since a report embeds its input path:
`fanloops check src/fanloops/corpus/<name>.loop` (and every command that
names no built loop, `fanloops census` included) from the repository root,
and `fanloops check <name>.loop` next to a serialized loop in a temporary
directory.  Each builder case renders the analysis report of a built loop,
cli.render_report(cli.analysis_report(G)).  The sums were taken from those
commands and scripts.
"""

import hashlib
from pathlib import Path

import pytest

from fanloops import catalog, census, cli, products

ROOT = Path(__file__).resolve().parents[1]
CORPUS = "src/fanloops/corpus"


def _s4():
    path = catalog.corpus_path("s4-xi-c2-q8.smash")
    return products.smashed_product(cli.parse_smash_file(str(path))[0])


# Loops built as the sums' commands and scripts built them: serialized into
# the temporary directory for a command, analysed for a builder case.
_BUILT = {
    "non-fan-5": lambda: census.find_witness(5, "non-fan"),
    "cd4": lambda: products.cayley_dickson_basis_loop(4),
    "oct16xc2": lambda: products.direct_product(
        [catalog.octonion16(), catalog.cyclic(2)]),
    "s4xc2": lambda: products.direct_product([_s4(), catalog.cyclic(2)]),
    "cd4xc2": lambda: products.direct_product(
        [products.cayley_dickson_basis_loop(4), catalog.cyclic(2)]),
    "oct16xq8": lambda: products.direct_product(
        [catalog.octonion16(), catalog.quaternion8()]),
    "cd5": lambda: products.cayley_dickson_basis_loop(5),
    "oct16xoct16": lambda: products.direct_product(
        [catalog.octonion16(), catalog.octonion16()]),
    "non-fan-5xc8": lambda: products.direct_product(
        [census.find_witness(5, "non-fan"), catalog.cyclic(8)]),
}


def _analysis(name):
    """A builder case: the analysis report of the built loop `name`."""
    return lambda: cli.render_report(cli.analysis_report(_BUILT[name]()))


# (case id, command line or builder, sha256).  A command that names a built
# loop runs from the temporary directory, any other from the repository
# root.
MANIFEST = [
    # taken before law clauses were compiled into slab-wise plans; the
    # non-fan loop of order 5 fails both membership laws, so its witnesses
    # are compared too
    ("check-c2", ["check", f"{CORPUS}/c2.loop"],
     "cce7c5638caeebb8c523085b5517206a994b713fca61efb0caf009e7ad50c85e"),
    ("check-c4", ["check", f"{CORPUS}/c4.loop"],
     "40ba83a8904555708b3c551b7def889bdd4453a81674d6e9288e8234d652aa8b"),
    ("check-c8", ["check", f"{CORPUS}/c8.loop"],
     "713d2b206d0479dfe8e36b27f4857897c69c604ead62682aa48a63a2960a291e"),
    ("check-d4", ["check", f"{CORPUS}/d4.loop"],
     "70d73c7d8044eb9b0f92bbb192bf2a93567b13f2e9399fc41570aa2ea39ed049"),
    ("check-non-fan-5", ["check", "non-fan-5.loop"],
     "877f5550686751d286fc41d562c64d6e26b87cf2f3089d9b71d2b2fc626a740a"),
    ("check-oct16", ["check", f"{CORPUS}/oct16.loop"],
     "87b5db6b52e7521166d72b8f87c2b37ef10d96f3ccfbff1a8fa50fdb1d676845"),
    ("check-q8", ["check", f"{CORPUS}/q8.loop"],
     "da6aa698e113fab5321293d06b5ac7ef3bee6fe39d498255ea57051924849186"),
    ("smash-s1", ["smash", f"{CORPUS}/s1-trivial-c2-c4.smash"],
     "afdfd26c6f793f74355b5f6fef84cffe58ce08ed2706cacac8112ce248a5f4fa"),
    ("smash-s2", ["smash", f"{CORPUS}/s2-xi-c2-c4.smash"],
     "4e003ec4b6dc6ac6e22e5b715cb41e2595424c88caf338e52f13e8e0cf8aa1f0"),
    ("smash-s3", ["smash", f"{CORPUS}/s3-phi-d4.smash"],
     "b8e7a344998e6c6cde6722505387efcccfc98f59eba040961e59d1724063325c"),
    ("smash-s4", ["smash", f"{CORPUS}/s4-xi-c2-q8.smash"],
     "bee8ab14485047ddf199b768f3119e219e2eff84d31f474c36db7cd19f983c23"),
    ("smash-s5", ["smash", f"{CORPUS}/s5-kappa-c4-q8.smash"],
     "f42b9eb12b692d55c0e7f1841667be0430d1d751b86a62fd405e2fc5af2f915d"),
    ("smash-s6", ["smash", f"{CORPUS}/s6-eta-c4-c8.smash"],
     "b8c08f72924053b115f9cd3de1c8be0f41ab74cf39da9fe618e4c0346489fa8a"),
    # taken before the invariance laws and Def 2.7.2 were decided from the
    # nucleus: loops of order 32 to 128, whose nuclei have 2 to 16 elements
    ("check-cd4", ["check", "cd4.loop"],
     "5c968418462e3848144ce9a9af81a49e034a4a2bdd57c1fa314033cf15490e13"),
    ("check-oct16xc2", ["check", "oct16xc2.loop"],
     "05a484f7c224cf93d9420c623ef6e19089e7d43508a35e68cea59e6b7343d590"),
    ("check-s4xc2", ["check", "s4xc2.loop"],
     "2465beb22c5fca41e0454e80a69731f54219f4141b5f9bfb4576a9cfa45d5166"),
    ("check-cd4xc2", ["check", "cd4xc2.loop"],
     "95176c2fe48e10c7871e70a266e1a828a473c5fdfff40da9a5f0833640eb9fcf"),
    ("check-oct16xq8", ["check", "oct16xq8.loop"],
     "f56d1a63312e26975a06e6612e19a462e702f31acc46d69a58f9b73ef9af9b5a"),
    # taken before the census classified in batches (the non-fan stream:
    # before it enumerated in stacks); order 6 crosses many batch and stack
    # edges.  The order 7, 4 and 1 sums were taken before the census read
    # its reduced-square totals from OEIS A000315, and the order-7 fan-only
    # one before the census screened squares for a nucleus: its first fan
    # square is at stream index 3,097,894, and it is the one case that
    # classifies squares of order 7.  The order-6 fan-only and
    # inverse-split sums were taken before the census built its emitted
    # loops from one copy of each batch's emitted squares; fan-only keeps
    # few squares of a batch
    ("census-5-non-fan", ["census", "5", "--filter", "non-fan"],
     "1478ff654fbad3a2836869eeeb3ad32803032e879d9c7b1fe961f917e53f1eec"),
    ("census-6-central-fan", ["census", "6", "--filter", "central-fan"],
     "fb6beed5185805d406e0b7c79cfd30573bdf1ff1b1d544c0d04eb54734b84602"),
    ("census-6-non-fan", ["census", "6", "--filter", "non-fan"],
     "9d5d2ca5033ca77307a6a8661ddaabbb072723b9a51f2e7b3116e792dead0dc5"),
    ("census-6-fan-only", ["census", "6", "--filter", "fan-only"],
     "92d114c3ecc7a6fc3573e6d126ffbdaa8120e0b05cfc576566600e05b09d165c"),
    ("census-6-split",
     ["census", "6", "--filter", "nontrivial-two-sided-inverse-split"],
     "5e80259410bb38c6622deaebc7aacee5ad97e18406a9c1f7f40957a3936b32b3"),
    ("census-7-limit-2", ["census", "7", "--limit", "2"],
     "b35b3eb375ec72ce5a8a6ac7fb0c1f14cf3ec69b7c681a405eac45abc86c6eb6"),
    ("census-7-fan-only-limit-1",
     ["census", "7", "--filter", "fan-only", "--limit", "1"],
     "61951eb9bde642143b5da4bd1a8d949f627b450e214e66f6d0efa65c4be65359"),
    ("census-4", ["census", "4"],
     "80e23b7d97f8c8ffce16b614777f29e2f91a2e1f18fe0bd0828e2c1243f1d31b"),
    ("census-1", ["census", "1"],
     "c897ca8dd3a80949e40cdb00e4cdac916f2be2b3060e5bd624246eb0f872fc61"),
    # taken before covering LPs were built from the functions' integer
    # forms: the octonion loop with and without a reference file, and Q8
    # with the defaults.  The two seeded cases (taken before LoopFunction
    # kept only its integer form) draw other random references and fan
    # averages
    ("haar-oct16", ["haar", f"{CORPUS}/oct16.loop", "-f",
                    f"{CORPUS}/chi_e1.fn", "-f", f"{CORPUS}/halves.fn"],
     "2e77c608d6ced3af1b4e0f1ee4cdc3e042c6020ebf569215b29db39c9d17851c"),
    ("haar-oct16-f0", ["haar", f"{CORPUS}/oct16.loop", "--f0",
                       f"{CORPUS}/halves.fn", "-f", f"{CORPUS}/chi_e1.fn"],
     "4ee2e018806bbe88d23a6bda8cface0155555526873cf21428aa8ed6f277522b"),
    ("haar-q8", ["haar", f"{CORPUS}/q8.loop"],
     "00ca2a18b3ead9e84d8fc31b318862fb8e8527a256ec243eadb3580fd6e473aa"),
    ("haar-oct16-seed11", ["--seed", "11", "haar", f"{CORPUS}/oct16.loop",
                           "-f", f"{CORPUS}/halves.fn"],
     "1b430ee3c387346b71e786b4e7c05faff826e0068872e9e7c8b77ef1d211a2fd"),
    ("haar-d4-seed3", ["--seed", "3", "haar", f"{CORPUS}/d4.loop"],
     "cfd41a5cdc5fc0c68a005600a5da4db3c81582b64089c55a8624bc5b79414da4"),
    # taken before the analysis found the nucleus first and read the
    # associators on coset representatives, when every field came from the
    # whole n^3 tensors
    ("analysis-cd4", _analysis("cd4"),
     "3a5b989511a1784d8762d34fc566b1164e9a340a71cf88d9a967d561baca183a"),
    ("analysis-cd5", _analysis("cd5"),
     "e0e8b23b433955e352b422d258274d09bb230bdd3d18018213e99fe341fbb7ff"),
    ("analysis-oct16xc2", _analysis("oct16xc2"),
     "75c95c96007b460d80167177f5452dfd733a7c578a15f9b152fad73148836c14"),
    ("analysis-oct16xq8", _analysis("oct16xq8"),
     "5061638daceb9ebd57925203637c4ea15602dc734ae28232bbd0949f004a4910"),
    ("analysis-oct16xoct16", _analysis("oct16xoct16"),
     "a97fd4501a037cfcf7ea0ebba10a7c7bb604cb91ed2599bf1388527420ff5679"),
    ("analysis-non-fan-5xc8", _analysis("non-fan-5xc8"),
     "02a0110b4458c4abee19e7a301c9a836e64ab9b708f930be71253b5547e75dd6"),
]


def _render(case, tmp_path, monkeypatch, capsys):
    """The bytes of a builder case's report, or those cli.main writes for a
    command line, run where its input paths point."""
    if callable(case):
        return case().encode()
    monkeypatch.delenv("FANLOOP_CAP", raising=False)
    built = [arg for arg in case
             if arg.endswith(".loop") and not arg.startswith(CORPUS)]
    for path in built:
        (tmp_path / path).write_text(
            cli.serialize_loop(_BUILT[path.removesuffix(".loop")]()))
    monkeypatch.chdir(tmp_path if built else ROOT)
    capsys.readouterr()
    cli.main(case)
    return capsys.readouterr().out.encode()


def _matches(report, digest):
    return hashlib.sha256(report).hexdigest() == digest


@pytest.mark.parametrize("case, digest",
                         [case[1:] for case in MANIFEST],
                         ids=[case[0] for case in MANIFEST])
def test_report_is_byte_identical(case, digest, tmp_path, monkeypatch,
                                  capsys):
    assert _matches(_render(case, tmp_path, monkeypatch, capsys), digest)


def test_a_one_byte_change_fails_its_case(tmp_path, monkeypatch, capsys):
    # negative control: the comparison reads every byte of the report
    _, argv, digest = MANIFEST[4]
    report = _render(argv, tmp_path, monkeypatch, capsys)
    assert _matches(report, digest)
    for k in (0, len(report) // 2, len(report) - 1):
        changed = report[:k] + bytes([report[k] ^ 1]) + report[k + 1:]
        assert not _matches(changed, digest), k
