"""Byte-identity of command reports: a manifest of sha256 sums.

Each case renders one report through cli.main in-process, with the same
command line, working directory and input file names as the shell
commands it stands for, since a report embeds its input path:
`fanloops check src/fanloops/corpus/<name>.loop` from the repository root,
and `fanloops check <name>.loop` next to a serialized loop in a temporary
directory.  The sums were taken from those commands.
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


# Loops serialized into the temporary directory, built as the sums' commands
# built them.
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
}

# (case id, command line, sha256).  A path under CORPUS runs from the
# repository root, any other from the temporary directory.
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
]


def _render(argv, tmp_path, monkeypatch, capsys):
    """The bytes cli.main writes for argv, run where its input path
    points."""
    monkeypatch.delenv("FANLOOP_CAP", raising=False)
    path = argv[-1]
    if path.startswith(CORPUS):
        monkeypatch.chdir(ROOT)
    else:
        (tmp_path / path).write_text(
            cli.serialize_loop(_BUILT[path.removesuffix(".loop")]()))
        monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    cli.main(argv)
    return capsys.readouterr().out.encode()


def _matches(report, digest):
    return hashlib.sha256(report).hexdigest() == digest


@pytest.mark.parametrize("argv, digest",
                         [case[1:] for case in MANIFEST],
                         ids=[case[0] for case in MANIFEST])
def test_report_is_byte_identical(argv, digest, tmp_path, monkeypatch,
                                  capsys):
    assert _matches(_render(argv, tmp_path, monkeypatch, capsys), digest)


def test_a_one_byte_change_fails_its_case(tmp_path, monkeypatch, capsys):
    # negative control: the comparison reads every byte of the report
    _, argv, digest = MANIFEST[4]
    report = _render(argv, tmp_path, monkeypatch, capsys)
    assert _matches(report, digest)
    for k in (0, len(report) // 2, len(report) - 1):
        changed = report[:k] + bytes([report[k] ^ 1]) + report[k + 1:]
        assert not _matches(changed, digest), k
