from __future__ import annotations

import pytest
from hypothesis import settings

from helpers import HONEYCOMB_DGF, PM2_DGF, SQUARE_DGF
from velo import parse_dgf

# the same examples on every run, no example database, no per-example deadline
settings.register_profile("velo", derandomize=True, database=None, deadline=None, max_examples=150)
settings.load_profile("velo")


@pytest.fixture(scope="session")
def honeycomb():
    return parse_dgf(HONEYCOMB_DGF)


@pytest.fixture(scope="session")
def square():
    return parse_dgf(SQUARE_DGF)


@pytest.fixture(scope="session")
def pm2():
    return parse_dgf(PM2_DGF)


@pytest.fixture()
def fixture_files(tmp_path):
    paths = {}
    for name, text in (("honeycomb", HONEYCOMB_DGF), ("square", SQUARE_DGF), ("pm2", PM2_DGF)):
        p = tmp_path / f"{name}.dgf"
        p.write_text(text)
        paths[name] = str(p)
    return paths
