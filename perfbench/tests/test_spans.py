"""Span arithmetic and attribute patching of the traced run."""

import itertools

from minsos import binary_sos, sampling

from perfbench import workloads
from perfbench.spans import Patcher, Span, Tracer, self_times, span_counts, total_times


def synthetic_tree():
    #  a [0, 10]
    #  +- b [1, 4]
    #  +- a [5, 9]        nested span with its parent's name
    #     +- c [6, 8]
    return [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("a", 5.0, 9.0, 0),
        Span("c", 6.0, 8.0, 2),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(synthetic_tree())
    # outer a: 10 - 3 - 4 = 3; inner a: 4 - 2 = 2
    assert own == {"a": 5.0, "b": 3.0, "c": 2.0}


def test_total_time_counts_nested_same_name_once():
    assert total_times(synthetic_tree()) == {"a": 10.0, "b": 3.0, "c": 2.0}
    assert span_counts(synthetic_tree()) == {"a": 2, "b": 1, "c": 1}


def test_tracer_builds_the_tree_from_nested_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return tracer.call("inner", inner) + 1

    assert tracer.call("outer", outer) == 8
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent) == ("outer", None)
    assert (inner_span.name, inner_span.parent) == ("inner", 0)
    assert outer_span.start < inner_span.start < inner_span.end < outer_span.end
    assert self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    try:
        tracer.call("boom", boom)
    except ValueError:
        pass
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.call("after", int) == 0
    assert tracer.spans[1].parent is None


def test_instrument_then_restore_puts_back_every_attribute():
    tracer = Tracer()
    patcher = Patcher()
    workloads.instrument(tracer, patcher)
    patched = list(patcher._saved)
    assert len(patched) > 30
    try:
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        patcher.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert patcher._saved == []


def test_traced_job_records_spans_and_counts_then_unwraps():
    f = sampling.random_nonneg_binary(4, seed=3)
    tracer = Tracer()
    patcher = Patcher()
    workloads.instrument(tracer, patcher)
    try:
        reps = binary_sos.enumerate_two_squares(f)
    finally:
        patcher.restore()
    assert len(reps) == 8
    calls = span_counts(tracer.spans)
    assert calls["binary_sos.enumerate_two_squares"] == 1
    assert calls["binary_sos.roots"] >= 1
    assert tracer.counts["binary_sos.equivalent_calls"] > 0
    metrics = workloads.layer_metrics(tracer)
    assert set(metrics) == set(workloads.PER_LAYER_UNITS)
    assert metrics["binary_sos.two_squares_self_s"] > 0
    # unwrapped again: a further call records nothing
    before = len(tracer.spans)
    binary_sos.enumerate_two_squares(f)
    assert len(tracer.spans) == before
