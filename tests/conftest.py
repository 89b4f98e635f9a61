import multiprocessing

import numpy as np
import pytest

from beliefplay import games


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running (and stop it)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail("child process(es) left running: %s" % left)


@pytest.fixture
def cournot_game():
    return games.cournot()


@pytest.fixture
def investment_game():
    return games.investment()


@pytest.fixture
def zerosum_game():
    return games.zerosum_example()


@pytest.fixture
def coordination_game():
    return games.coordination_penalty()


@pytest.fixture
def routing_game():
    return games.two_route_congestion()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Acceptance-criteria reporting: each acceptance test records one line that is
# echoed after the normal pytest summary.

ACCEPTANCE = {}


@pytest.fixture
def criterion():
    def check(num, passed, detail):
        ACCEPTANCE[num] = ("PASS" if passed else "FAIL", detail)
        assert passed, "criterion %d failed: %s" % (num, detail)

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        status, detail = ACCEPTANCE[num]
        terminalreporter.write_line("CRITERION %d: %s  (%s)" % (num, status,
                                                                detail))
