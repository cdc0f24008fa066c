import pytest

import tracing


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(1, 3), (2, 5), (7, 8)]) == 5
    assert tracing.covered([(0, 10), (2, 3)]) == 10


def test_self_time_is_parent_minus_covered_child_intervals():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: covered union is [1, 5]
        span("c", 7.0, 8.0, 0),
        span("d", 1.5, 2.5, 1),  # grandchild: counts against a only
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_child_outside_parent_is_clipped():
    spans = [span("p", 0.0, 4.0, -1), span("c", 3.0, 6.0, 0), span("x", 5.0, 9.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_self_times_add_up_to_the_root():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 6.0, 0),
        span("b", 2.0, 3.0, 1),
        span("c", 4.0, 5.5, 1),
        span("d", 7.0, 9.0, 0),
    ]
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_nesting_points_and_restores_attributes():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return len(x)

    tracer = tracing.Tracer()
    originals = (Box.outer, Box.inner)
    Box.outer = tracer.span("outer", originals[0])
    Box.inner = tracer.span("inner", originals[1], "x")
    rec = tracer.begin_op(3)
    assert Box.outer([1, 2, 3]) == 4
    tracer.end_op(rec)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["op", "outer", "inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert {s[tracing.OP] for s in tracer.spans} == {3}
    totals = tracing.layer_totals(tracer.spans)
    assert totals["inner"]["calls"] == 1
    assert totals["inner"]["points"] == 1  # a list has no size: one point


def test_install_wraps_and_uninstall_restores_pdmtpt():
    from pdmtpt import cli, tpt_extended

    before = (cli.solve_spectrum, tpt_extended.s_sum, tpt_extended.ClosedFormWavefunction.value)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.solve_spectrum is not before[0]
        assert cli.solve_spectrum.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    after = (cli.solve_spectrum, tpt_extended.s_sum, tpt_extended.ClosedFormWavefunction.value)
    assert after == before


def test_csv_round_trip(tmp_path):
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.5, 1.5, -1, 2, 0], ["x", 0.75, 1.0, 0, 2, 4001]]
    path = tmp_path / "spans.csv"
    tracer.write_csv(str(path))
    assert tracing.read_csv(str(path)) == tracer.spans
