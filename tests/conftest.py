"""One verify.run_all(40) walk per test session, read by the acceptance criteria
whose formula-vs-oracle sweep is a verify suite."""

import pytest


@pytest.fixture(scope="session")
def walk():
    """Every suite's result from one verify.run_all(40) walk, by name."""
    from brieskorn.verify import run_all

    return {result.name: result for result in run_all(40)}

