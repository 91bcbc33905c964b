import pytest

# the grid oracle and the shared referees check with plain asserts;
# rewriting keeps them under python -O
pytest.register_assert_rewrite("grid_oracle", "referees")

from mscheme import files


@pytest.fixture(scope="session")
def fixture_scheme():
    cache = {}

    def load(name):
        if name not in cache:
            cache[name] = files.load_scheme(files.resolve_input(f"{name}.json"))
        return cache[name]

    return load


@pytest.fixture(scope="session")
def isth(fixture_scheme):
    return fixture_scheme("isth")


@pytest.fixture(scope="session")
def cw_l(fixture_scheme):
    return fixture_scheme("cw_l")


@pytest.fixture(scope="session")
def cw_r(fixture_scheme):
    return fixture_scheme("cw_r")


@pytest.fixture(scope="session")
def nonpos(fixture_scheme):
    return fixture_scheme("nonpos")


@pytest.fixture(scope="session")
def dow_triv(fixture_scheme):
    return fixture_scheme("dow_triv")


@pytest.fixture(scope="session")
def dow_nontriv(fixture_scheme):
    return fixture_scheme("dow_nontriv")


@pytest.fixture(scope="session")
def qfix(fixture_scheme):
    return fixture_scheme("qfix")


@pytest.fixture(scope="session")
def qfix2(fixture_scheme):
    return fixture_scheme("qfix2")


@pytest.fixture(scope="session")
def notgeom_poset():
    return files.load_ranked_poset(files.resolve_input("notgeom.json"))


@pytest.fixture(scope="session")
def toric1():
    return files.load_arrangement(files.resolve_input("toric1.json"))


@pytest.fixture(scope="session")
def corpus():
    """The generated scheme corpus shared by property and acceptance tests."""
    from generators import build_corpus
    return build_corpus(seed=20240814)
