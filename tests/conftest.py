"""Shared fixtures: corpus loops and seeded RNG helpers."""

from fractions import Fraction
from random import Random

import pytest

from fanloops import catalog

SEED = 20240811


@pytest.fixture
def rng():
    return Random(SEED)


@pytest.fixture(scope="session")
def groups8():
    """(name, loop) for every group of order <= 8 in the catalog."""
    return catalog.groups_up_to_8()


@pytest.fixture(scope="session")
def oct16():
    return catalog.octonion16()


@pytest.fixture(scope="session")
def q8():
    return catalog.quaternion8()


@pytest.fixture(scope="session")
def smash_products():
    """(data, product) for the six shipped smashing systems."""
    from fanloops import products

    return [(d, products.smashed_product(d)) for d in catalog.smash_instances()]


@pytest.fixture(scope="session")
def corpus_loops(groups8, smash_products):
    """(name, loop) for every bundled loop of order <= 32: the catalog
    groups, the corpus .loop files, the Cayley-Dickson basis loops up to
    k = 4 and the six smashed products."""
    from fanloops import products

    files = sorted(p.name for p in catalog.corpus_path("").iterdir()
                   if p.name.endswith(".loop"))
    out = list(groups8)
    out += [(name, catalog.corpus_loop(name)) for name in files]
    out += [(f"cd{k}", products.cayley_dickson_basis_loop(k))
            for k in range(1, 5)]
    out += [(d.name, P) for d, P in smash_products]
    return out


def rand_fraction(rng, max_num=6, max_den=8):
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
