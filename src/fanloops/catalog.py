"""Small stock loops: cyclic/dihedral/Klein groups, the full list of groups
of order <= 8, and accessors for the bundled corpus files.

All constructors return verified FiniteLoop instances with human-readable
labels; groups are the degenerate (associative) end of the fan-loop world
and serve as building blocks and negative controls throughout the tests.
"""

from importlib import resources

import numpy as np

from . import cli, core, products
from .config import check_order


def cyclic(n, generator_label="g"):
    """C_n with elements e, g, g2, ..."""
    n = core.count(n, "n", 1)
    check_order(n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [generator_label if i == 1 else f"{generator_label}{i}"
                      for i in range(1, n)]
    return core.verify_loop(table, identity=0, labels=labels)


def dihedral(n):
    """D_n of order 2n (n >= 1): (i,f)(j,g) = (i + (-1)^f j mod n, f xor g).

    Element (i, f) sits at index i + n*f; labels e, r, r2, ..., s, rs, r2s, ...
    """
    n = core.count(n, "n", 1)
    check_order(2 * n)
    f, i, g, j = np.ogrid[:2, :n, :2, :n]
    table = ((i + (1 - 2 * f) * j) % n + n * (f ^ g)).reshape(2 * n, 2 * n)
    rot = ["e"] + ["r" if i == 1 else f"r{i}" for i in range(1, n)]
    ref = ["s"] + ["rs" if i == 1 else f"r{i}s" for i in range(1, n)]
    return core.verify_loop(table, identity=0, labels=rot + ref)


def klein4():
    """C2 x C2 with labels e, a, b, ab."""
    table = np.array([[0, 1, 2, 3],
                      [1, 0, 3, 2],
                      [2, 3, 0, 1],
                      [3, 2, 1, 0]], dtype=np.int16)
    return core.verify_loop(table, identity=0, labels=["e", "a", "b", "ab"])


def quaternion8():
    """Q8 as the k=2 Cayley-Dickson basis loop (1, -1, i, -i, j, -j, k, -k)."""
    return products.cayley_dickson_basis_loop(2)


def octonion16():
    """The octonion basis loop (k=3): the flagship order-16 fan loop."""
    return products.cayley_dickson_basis_loop(3)


def symmetric3():
    """S3 realized as D3."""
    return dihedral(3)


def groups_up_to_8():
    """All groups of order <= 8 up to isomorphism, as (name, loop) pairs."""
    out = [
        ("C1", cyclic(1)),
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("K4", klein4()),
        ("C5", cyclic(5)),
        ("C6", cyclic(6)),
        ("S3", symmetric3()),
        ("C7", cyclic(7)),
        ("C8", cyclic(8)),
        ("C4xC2", products.direct_product([cyclic(4), cyclic(2)],
                                          verify=False)),
        ("C2^3", products.direct_product([cyclic(2), cyclic(2), cyclic(2)],
                                         verify=False)),
        ("D4", dihedral(4)),
        ("Q8", quaternion8()),
    ]
    return out


def smash_instances():
    """Named SmashingData instances covering every smashing factor, read
    from the bundled corpus/*.smash files in name order.

    s1: all factors trivial (degenerates to the direct product C2 x C4).
    s2: C2 (x) C4 with N = C2 embedded as {e,g2}, phi trivial, xi the
        pairing nontrivial exactly on (non-N x non-N) class pairs.
    s3: C2 (x) C4 with N = {e} and phi(a) = inversion -> D4.
    s4: C2 (x) Q8 with N = {1,-1} and a xi breaking associativity:
        an order-16 fan loop that is not a group.
    s5: C4 (x) Q8 where phi(g) swaps j and k -- not an automorphism of Q8,
        so kappa is forced nontrivial; eta = xi = e.  Order 32.
    s6: C4 (x) C8 where phi(g) squares to translation-by-h4 on half the
        N-classes, so eta is nontrivial; kappa and xi nontrivial too.
        Order 32.
    """
    files = sorted(p.name for p in corpus_path("").iterdir()
                   if p.name.endswith(".smash"))
    return [cli.parse_smash_file(str(corpus_path(name)))[0]
            for name in files]


def corpus_path(name):
    """Filesystem path of a bundled corpus file (e.g. 'oct16.loop')."""
    return resources.files("fanloops") / "corpus" / name


def corpus_loop(name):
    """Load a bundled .loop file by name."""
    return cli.parse_loop_file(str(corpus_path(name)))
