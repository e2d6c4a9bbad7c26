"""Differential tests: LAPJV (scipy) fast path vs. pure Kuhn–Munkres.

Both solvers are deterministic and optimal; on every matrix the fast
path must produce a *valid* assignment with exactly the reference
optimal cost, and on infeasible matrices it must raise the reference
``ValueError``.  (On real MMA matrices the assignments themselves are
identical as well; random matrices can tie, so here we assert the
invariants the rest of the compiler relies on — validity + optimal
cost — plus byte-identical behaviour between ``ORION_ACCEL`` modes.)
"""

from __future__ import annotations

import os

import pytest

from repro.regalloc.matching import (
    INFINITY,
    _min_cost_assignment_pure,
    assignment_weight,
    min_cost_assignment,
)

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("scipy.optimize")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class _forced_mode:
    """Temporarily pin ``ORION_ACCEL`` for a differential run."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self._saved: str | None = None

    def __enter__(self):
        self._saved = os.environ.get("ORION_ACCEL")
        os.environ["ORION_ACCEL"] = self.mode
        return self

    def __exit__(self, *exc):
        if self._saved is None:
            os.environ.pop("ORION_ACCEL", None)
        else:
            os.environ["ORION_ACCEL"] = self._saved


def _finite_matrix(min_rows=1, max_rows=8, extra_cols=0):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_rows, max_rows))
        m = draw(st.integers(n, n + extra_cols)) if extra_cols else n
        cell = st.integers(-50, 50).map(float)
        return [[draw(cell) for _ in range(m)] for _ in range(n)]

    return build()


def _check_equivalent(cost):
    reference = _min_cost_assignment_pure(cost)
    with _forced_mode("auto"):
        fast = min_cost_assignment(cost)
    n = len(cost)
    assert sorted(fast) == sorted(set(fast)), "fast path reused a column"
    assert len(fast) == n
    assert all(0 <= j < len(cost[0]) for j in fast)
    assert assignment_weight(cost, fast) == assignment_weight(cost, reference)


@settings(max_examples=150, deadline=None)
@given(_finite_matrix())
def test_square_matrices_equivalent(cost):
    _check_equivalent(cost)


@settings(max_examples=150, deadline=None)
@given(_finite_matrix(extra_cols=5))
def test_rectangular_matrices_equivalent(cost):
    _check_equivalent(cost)


@settings(max_examples=150, deadline=None)
@given(
    _finite_matrix(min_rows=2, extra_cols=3),
    st.data(),
)
def test_matrices_with_forbidden_entries(cost, data):
    # Poison a random subset of entries with +inf; both solvers must
    # agree on cost when feasible and on the error when not.
    n, m = len(cost), len(cost[0])
    k = data.draw(st.integers(0, n * m))
    for _ in range(k):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, m - 1))
        cost[i][j] = INFINITY

    try:
        reference = _min_cost_assignment_pure(cost)
    except ValueError as exc:
        with _forced_mode("auto"):
            with pytest.raises(ValueError) as caught:
                min_cost_assignment(cost)
        assert str(caught.value) == str(exc)
        return
    # Optimal-but-tied assignments may differ; costs may not.  The
    # infeasible guard means any returned assignment is all-finite.
    with _forced_mode("auto"):
        fast = min_cost_assignment(cost)
    assert all(cost[i][j] < INFINITY for i, j in enumerate(fast))
    assert assignment_weight(cost, fast) == assignment_weight(cost, reference)


def test_infeasible_error_message_matches_reference():
    cost = [[INFINITY, INFINITY], [1.0, 2.0]]
    with _forced_mode("off"):
        with pytest.raises(ValueError) as pure_err:
            min_cost_assignment(cost)
    with _forced_mode("auto"):
        with pytest.raises(ValueError) as fast_err:
            min_cost_assignment(cost)
    assert "infeasible assignment: row 0" in str(pure_err.value)
    assert str(fast_err.value) == str(pure_err.value)


def test_validation_errors_identical_across_modes():
    ragged = [[1.0, 2.0], [3.0]]
    tall = [[1.0], [2.0]]
    for mode in ("off", "auto"):
        with _forced_mode(mode):
            with pytest.raises(ValueError, match="unequal lengths"):
                min_cost_assignment(ragged)
            with pytest.raises(ValueError, match="at least as many columns"):
                min_cost_assignment(tall)
            assert min_cost_assignment([]) == []


def test_off_mode_uses_pure_solver_result():
    cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]
    with _forced_mode("off"):
        off = min_cost_assignment(cost)
    with _forced_mode("auto"):
        fast = min_cost_assignment(cost)
    assert off == _min_cost_assignment_pure(cost)
    assert assignment_weight(cost, fast) == assignment_weight(cost, off)
