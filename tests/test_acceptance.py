"""Release gate: every criterion runs at its stated tolerance.

The checks live in ``wedgelab.acceptance`` (also reachable via the CLI
``verify`` subcommand); the heavyweight graded solves are shared through a
module-scoped workbench.  Each case prints the criterion's one-line verdict.
"""

import pytest

from wedgelab import acceptance


@pytest.fixture(scope="module")
def bench():
    return acceptance.Workbench()


@pytest.mark.parametrize(
    "name, check", acceptance.CRITERIA, ids=[name for name, _ in acceptance.CRITERIA]
)
def test_criterion(name, check, bench):
    result = acceptance.run_check(name, check, bench)
    print(result.line())
    assert result.passed, result.line()
    if check is acceptance.check_04_corner_witness:
        assert any("beta=" in d for d in result.details)
