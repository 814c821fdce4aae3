"""One verify.run_all(40) walk per test session, read by every module whose
formula-vs-oracle sweep is a verify suite."""

import pytest


@pytest.fixture(scope="session")
def walk():
    """Every suite's result from one verify.run_all(40) walk, by name."""
    from brieskorn.verify import run_all

    return {result.name: result for result in run_all(40)}


@pytest.fixture(scope="session")
def walk_failures(walk):
    """walk_failures(suite, *markers): the suite's failures naming any marker, or all."""

    def select(suite: str, *markers: str) -> list[str]:
        failures = walk[suite].failures
        return [f for f in failures if not markers or any(m in f for m in markers)]

    return select
