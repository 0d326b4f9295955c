"""Release gate: every criterion runs at its stated tolerance.

The checks live in ``wedgelab.acceptance`` (also reachable via the CLI
``verify`` subcommand); the heavyweight graded solves are shared through a
module-scoped workbench.  Each case prints the criterion's one-line verdict.
"""

import re

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


def test_criterion_10_names_the_solver_of_each_case(bench):
    passed, details = acceptance.check_10_maximum_principle(bench)
    assert passed and len(details) == 3
    for detail in details:
        m = re.fullmatch(r"a0=\S+: overshoot=\S+ precond=multigrid levels=2 iters=(\d+)", detail)
        assert m and int(m[1]) <= 20, detail
