"""The floor and prop1 suites split their b values with a forked child.

With two CPUs usable, a child computes the rows of b = 3, 5, ... while this
process computes those of b = 2, 4, ...; the results must have the same bits
as with one CPU, where every row is computed here.
"""

import os

import pytest
from test_asymptotics import _assert_reaped, _forks, _open_fds, _refuse_fork
from test_exact import _floor_row_oracle

from cotsum import PrecisionConfig, checks, numerics
from cotsum.cli import main

# Both suites' child share first reaches the 2^13-term break-even at size 29:
# floor 2*sum b(b-1) = 8,540 (6,916 at 28), prop1 40*sum (b-1) = 8,400
# (7,280 at 28), over the child's b = 3, 5, ...  None is the default size.
CASES = [
    (suite, size, precision, forks)
    for suite in ("floor", "prop1")
    for size, precision, forks in (
        (None, 53, True),
        (40, 113, True),
        (2, 53, False),
        (3, 53, False),
        (28, 53, False),
        (29, 53, True),
    )
]


def _serial(suite, size, cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(numerics, "_cpus", lambda: 1)
        return checks.SUITES[suite](size, checks.DEFAULT_SEED, cfg)


@pytest.mark.parametrize("suite, size, precision, forks", CASES)
def test_suites_have_the_same_bits_on_one_cpu_and_two(
    suite, size, precision, forks, monkeypatch
):
    cfg = PrecisionConfig(working_precision=precision)
    pids = _forks(monkeypatch)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(numerics, "_cpus", lambda: cpus)
        before = len(pids)
        results.append(checks.SUITES[suite](size, checks.DEFAULT_SEED, cfg))
        assert len(pids) - before == (1 if forks and cpus == 2 else 0)
    assert results[0] == results[1]
    _assert_reaped(pids)


@pytest.mark.parametrize(
    "suite, rows", [("floor", "_floor_rows"), ("prop1", "_prop1_rows")]
)
def test_a_child_that_writes_nothing_leaves_the_suite_bits_alone(
    suite, rows, cfg, monkeypatch
):
    expected = _serial(suite, None, cfg, monkeypatch)
    parent = os.getpid()
    compute = getattr(checks, rows)

    def silent_in_the_child(bs, *args):
        if os.getpid() != parent:
            os._exit(0)
        return compute(bs, *args)

    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    monkeypatch.setattr(checks, rows, silent_in_the_child)
    pids = _forks(monkeypatch)
    assert checks.SUITES[suite](None, checks.DEFAULT_SEED, cfg) == expected
    assert len(pids) == 1
    _assert_reaped(pids)


# Each row computed on its own, for one b; a suite's case for b carries it.
ROW_OF = {
    "floor": lambda b, cfg: checks._floor_rows(range(b, b + 1), cfg)[0][0],
    "prop1": lambda b, cfg: checks.worst_residue(
        checks._prop1_rows(
            range(b, b + 1), checks._prop1_draws(checks.DEFAULT_SEED, b), cfg
        )[0]
    ),
}


@pytest.mark.parametrize("suite", sorted(ROW_OF))
def test_each_case_carries_the_row_of_its_own_b(suite, cfg, monkeypatch):
    # 28 b values, an even count: rows interleaved in the wrong order would
    # fill both halves without an error
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    pids = _forks(monkeypatch)
    cases, _ = checks.SUITES[suite](29, checks.DEFAULT_SEED, cfg)
    assert len(pids) == 1
    assert [(name, residue) for name, _, residue in cases] == [
        (f"b={b}", ROW_OF[suite](b, cfg)) for b in range(2, 30)
    ]
    _assert_reaped(pids)


def test_a_refused_fork_prints_what_one_cpu_prints(capsys, monkeypatch):
    # the floor suite at size 100 forks once on two CPUs; refused, it runs
    # every row here and the CLI still passes
    argv = ["verify", "--suite", "floor", "--size", "100"]
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    fds = _open_fds()
    assert main(argv) == 0
    refused = capsys.readouterr()
    assert _open_fds() == fds
    monkeypatch.setattr(numerics, "_cpus", lambda: 1)
    assert main(argv) == 0
    assert capsys.readouterr() == refused


def test_a_row_past_b_1000_has_no_class_0(cfg):
    # a = 1..1000 miss class 0 of b = 1003, and classes 1 and 2 miss their
    # conjugates 1002 and 1001
    b = 1003
    expected = _floor_row_oracle(b, cfg.working_precision)
    assert checks._floor_rows(range(b, b + 1), cfg) == [expected]
