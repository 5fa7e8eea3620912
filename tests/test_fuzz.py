"""Seeded fuzz over the three file parsers: every mutated corpus file, run
through the command line, must end in an exit code of the contract (0-7),
never in an uncaught exception.
"""

import shutil
from random import Random

import pytest

from fanloops import catalog, cli

SEED = 20261018
ROUNDS = {".loop": 120, ".smash": 100, ".fn": 20}
TOKENS = (b"65537", b"-1", b"1/0", b"nan", b"0.5", b"->", b"[N]", b"\xff",
          b"\n", b" ")


def _mutate(rng, data):
    """Apply one to four character insertions, deletions, swaps or token
    splices to data (bytes)."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(len(out) + 1)
        op = rng.randrange(4)
        if op == 0:
            out[k:k] = bytes([rng.choice(data)])
        elif op == 1 and k < len(out):
            del out[k]
        elif op == 2 and len(out) > 1:
            a, b = rng.randrange(len(out)), rng.randrange(len(out))
            out[a], out[b] = out[b], out[a]
        else:
            out[k:k] = rng.choice(TOKENS)
    return bytes(out)


def _argv(suffix, path, corpus):
    if suffix == ".loop":
        return ["check", path]
    if suffix == ".smash":
        return ["smash", path]
    return ["haar", str(corpus / "oct16.loop"), "-f", path]


@pytest.mark.parametrize("suffix", sorted(ROUNDS))
def test_mutated_files_end_in_an_exit_code(suffix, tmp_path, capsys):
    # the smash files name their factor loops relative to themselves, so
    # mutants are written next to a copy of the whole corpus
    corpus = tmp_path / "corpus"
    shutil.copytree(catalog.corpus_path(""), corpus)
    rng = Random(SEED)
    target = corpus / ("fuzz" + suffix)
    for src in sorted(corpus.glob("*" + suffix)):
        data = src.read_bytes()
        for _ in range(ROUNDS[suffix]):
            text = _mutate(rng, data)
            target.write_bytes(text)
            argv = _argv(suffix, str(target), corpus)
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - reported with input
                pytest.fail(f"{src.name} mutant {text!r} raised {exc!r}")
            capsys.readouterr()
            assert 0 <= code <= 7, (src.name, text)
