"""The columnar trace: the :class:`Points` view's sequence semantics, the
``array('q')`` step and set index columns, and the memory a recorded step
costs in a run's trace and in a trace read from CSV."""

import copy
import math
import pickle
import tracemalloc
from array import array

import pytest

from cycproj.catalog import get_entry
from cycproj.cli import read_trace, write_trace
from cycproj.engine import Points, Trace, alternating_project, cyclic_project

MAX_BYTES_PER_STEP = 64  # about 50 for 2-D columns; lists of ints took about 80, a tuple per step about 220


def _points():
    return Points.of(2, [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])


def test_points_compare_equal_to_a_list_of_tuples_both_ways():
    pts = _points()
    listed = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    assert pts == listed and listed == pts
    assert not (pts != listed or listed != pts)
    assert pts != listed[:2] and listed[:2] != pts
    assert pts != [(1.0, 2.0), (3.0, 4.0), (5.0, 7.0)]
    assert pts == Points(2, array("d", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert pts != Points(3, array("d", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))


def test_points_index_slice_len_and_iterate_as_tuples():
    pts = _points()
    assert len(pts) == 3 and len(Points(2)) == 0 and not Points(2)
    assert pts[0] == (1.0, 2.0) and pts[-1] == (5.0, 6.0) and pts[-3] == (1.0, 2.0)
    assert isinstance(pts[1], tuple)
    assert pts[-2:] == [(3.0, 4.0), (5.0, 6.0)] and isinstance(pts[-2:], list)
    assert pts[::2] == [(1.0, 2.0), (5.0, 6.0)]
    assert pts[5:] == []
    assert list(pts) == [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    assert list(reversed(pts)) == [(5.0, 6.0), (3.0, 4.0), (1.0, 2.0)]
    for i in (3, -4):
        with pytest.raises(IndexError):
            pts[i]
    with pytest.raises(ValueError, match="2 coordinates"):
        Points.of(2, [(1.0, 2.0), (3.0,)])


def test_trace_built_from_lists_holds_int_columns():
    trace = Trace(get_entry("ex5.5").problem, (0.0, 2.0), [1, 2], [(0.0, 1.0), (1.0, 0.0)], [0, 1],
                  [0.5, 0.25], [1.0, 2.0], sets_per_sweep=2, total_steps=2, thinned=False)
    assert trace.ks == array("q", [1, 2]) and trace.set_indices == array("q", [0, 1])
    assert trace.ks.typecode == trace.set_indices.typecode == "q"
    with pytest.raises(OverflowError):
        Trace(get_entry("ex5.5").problem, (0.0, 2.0), [2**63], [(0.0, 1.0)], [0],
              [0.5], [1.0], sets_per_sweep=2, total_steps=1, thinned=False)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_keep_the_int_columns_views(tmp_path, clone):
    trace = cyclic_project(get_entry("ex5.5").problem, (0.3, 1.9), max_sweeps=3, stop_tol=1e-300)
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    for original in (trace, read_trace(str(path))):
        back = clone(original)
        for column, listed in ((back.ks, [1, 2, 3, 4, 5, 6]), (back.set_indices, [0, 1, 0, 1, 0, 1])):
            assert type(column) is array and column.typecode == "q"
            assert column == array("q", listed) and column.tolist() == listed
        assert back.ks == original.ks and back.set_indices == original.set_indices
        if clone is copy.deepcopy:
            assert back.ks is not original.ks


def test_points_keep_negative_zero_and_nan_bits(tmp_path):
    values = [(-0.0, math.nan), (5e-324, -math.inf), (0.1, -5e-324)]
    pts = Points.of(2, values)
    hexes = [[v.hex() for v in p] for p in values]
    assert [[v.hex() for v in p] for p in pts] == hexes
    assert [pts[-3][0].hex(), pts[-3][1].hex()] == ["-0x0.0p+0", "nan"]
    trace = Trace(
        problem=get_entry("ex5.5").problem,
        x0=(0.0, 2.0),
        ks=[1, 2, 3],
        iterates=values,
        set_indices=[0, 1, 0],
        residuals_before=[math.nan, -0.0, 1.0],
        step_norms=[0.0, 1.0, -0.0],
        sets_per_sweep=2,
        total_steps=3,
        thinned=False,
    )
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    data = read_trace(str(path))
    assert [[v.hex() for v in p] for p in data.points] == hexes
    assert [v.hex() for v in data.residuals_before] == ["nan", "-0x0.0p+0", "0x1.0000000000000p+0"]


def test_trace_built_from_lists_holds_columns():
    trace = Trace(
        problem=get_entry("ex5.5").problem,
        x0=(0.0, 2.0),
        ks=[1, 2],
        iterates=[(0.0, 1.0), (1.0, 0.0)],
        set_indices=[0, 1],
        residuals_before=[0.5, 0.25],
        step_norms=[1.0, 2.0],
        sets_per_sweep=2,
        total_steps=2,
        thinned=False,
    )
    assert isinstance(trace.iterates, Points) and trace.iterates == [(0.0, 1.0), (1.0, 0.0)]
    assert trace.residuals_before == array("d", [0.5, 0.25])
    assert trace.step_norms == array("d", [1.0, 2.0])
    assert trace.last_iterate() == (1.0, 0.0)


def test_alternating_views_select_the_steps_of_each_parity():
    entry = get_entry("ex5.5")
    A, B = entry.pair
    result = alternating_project(A, B, entry.default_start, max_iters=50, stop_tol=1e-30)
    full = result.combined
    for view, parity in ((result.a_trace, 1), (result.b_trace, 0)):
        rows = [i for i, k in enumerate(full.ks) if k % 2 == parity]
        assert view.ks.tolist() == [full.ks[i] for i in rows]
        assert view.iterates == [full.iterates[i] for i in rows]
        assert view.set_indices.tolist() == [full.set_indices[i] for i in rows]
        assert list(view.residuals_before) == [full.residuals_before[i] for i in rows]
        assert list(view.step_norms) == [full.step_norms[i] for i in rows]


def _held_bytes(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_recorded_steps_cost_at_most_64_bytes_in_a_run_and_in_a_read(tmp_path):
    problem = get_entry("ex5.5").problem
    start = (0.3, 1.9)
    # one sweep first, so the sets' lazily compiled kernels are not counted
    cyclic_project(problem, start, max_sweeps=1, stop_tol=1e-300)
    trace, held = _held_bytes(
        lambda: cyclic_project(problem, start, max_sweeps=10_000, stop_tol=1e-300)
    )
    assert len(trace.ks) == 20_000 and not trace.thinned
    assert held / len(trace.ks) <= MAX_BYTES_PER_STEP
    path = tmp_path / "ex55.csv"
    write_trace(trace, str(path))
    del trace
    data, held = _held_bytes(lambda: read_trace(str(path)))
    assert len(data.ks) == 20_000
    assert held / len(data.ks) <= MAX_BYTES_PER_STEP
