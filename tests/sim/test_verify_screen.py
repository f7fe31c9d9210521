"""The error-only verify equals the error subset of the full verify.

``verify(stream, dataflow=False)`` -- the gate in front of every cold
request -- checks operand domains with a column screen and runs the
per-record walk only when the screen cannot prove a stream clean.  Its
diagnostics must still be exactly the error-severity diagnostics of the
full ``verify(stream)``: on every compiler stream and every corpus
mutation of ``tools/check_verify_corpus.py``, on fuzzed streams with one
operand corrupted, and for one mutation per screened column, which must
go through the fallback walk and report the walk's code and index.
"""

import importlib.util
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.march import library
from repro.sim import OpStream, compile_march, verify
from repro.sim.diagnostics import ERROR
from tests.sim.test_stream_fuzz import op_streams

verify_module = importlib.import_module("repro.sim.verify")

_CORPUS_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                            "check_verify_corpus.py")


def _load_corpus():
    spec = importlib.util.spec_from_file_location("check_verify_corpus",
                                                  _CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus()


def _unchecked(build):
    """What ``build`` makes, with the construction gate switched off, so
    construction-level corruptions reach both verify modes too."""
    with mock.patch.object(OpStream, "__post_init__", lambda self: None):
        return build()


def _raw_copy(stream, ops):
    """``stream`` with other ops, bypassing construction validation."""
    raw = object.__new__(OpStream)
    raw.__dict__.update(stream.__dict__)
    raw.__dict__.pop("_digest", None)
    raw.ops = tuple(ops)
    return raw


def assert_error_only_matches(stream):
    full = verify(stream).diagnostics
    errors = tuple(d for d in full if d.severity == ERROR)
    assert verify(stream, dataflow=False).diagnostics == errors
    return errors


# -- whole corpus -----------------------------------------------------------


@pytest.mark.parametrize("index", range(len(corpus.compiler_streams())))
def test_compiler_streams_pass_the_screen(index):
    stream = corpus.compiler_streams()[index]
    assert verify_module._operands_screen_clean(stream)
    assert assert_error_only_matches(stream) == ()


@pytest.mark.parametrize("name", sorted(corpus.MUTATIONS))
def test_corpus_mutations_match(name):
    expected, build = corpus.MUTATIONS[name]
    errors = assert_error_only_matches(_unchecked(build))
    assert expected in {d.code for d in errors}


@settings(max_examples=150, deadline=None)
@given(stream=op_streams(), data=st.data())
def test_fuzzed_streams_with_one_corrupted_operand_match(stream, data):
    assert_error_only_matches(stream)
    if not stream.ops:
        return
    index = data.draw(st.integers(0, len(stream.ops) - 1))
    slot = data.draw(st.integers(1, 5))
    value = data.draw(st.one_of(
        st.integers(-3, 2 * stream.n + (1 << stream.m)), st.none(),
        st.booleans(), st.just(1.0), st.just("0")))
    ops = list(stream.ops)
    ops[index] = ops[index][:slot] + (value,) + ops[index][slot + 1:]
    assert_error_only_matches(_raw_copy(stream, ops))


# -- one mutation per screened column ------------------------------------------


def _march4():
    return compile_march(library.MARCH_C_MINUS, 8, m=4)


#: (record kind, slot, bad value, expected code, stream builder).
COLUMN_MUTATIONS = [
    ("w", 2, 8, "E201", _march4),  # address
    ("r", 2, -1, "E201", _march4),
    ("r", 1, 1, "E105", _march4),  # flat port on a one-port stream
    ("w", 3, 1 << 4, "E202", _march4),  # write value
    ("w", 3, 1.0, "E202", _march4),  # a float equal to an int
    ("r", 4, 1 << 4, "E202", _march4),  # expected read
    ("s", 4, -1, "E202", corpus._schedule16),  # captured read
    ("ra", 3, 99, "E203", corpus._schedule16),  # table reference
    ("ra", 4, 1 << 4, "E202", corpus._schedule16),  # decode mask
    ("wa", 3, 1 << 4, "E202", corpus._schedule16),  # encode mask
    ("wa", 4, 1 << 4, "E202", corpus._schedule16),  # expected stored
    ("ra", 5, -1, "E205", corpus._quad),  # accumulator id
    ("wa", 5, "0", "E205", corpus._quad),
    ("i", 5, -3, "E206", corpus._retention_march),  # idle count
]


@pytest.mark.parametrize("kind, slot, value, code, build", COLUMN_MUTATIONS)
def test_each_screened_column_falls_back_to_the_walk(kind, slot, value, code,
                                                     build):
    clean = build()
    index = corpus._first(clean, kind)
    ops = list(clean.ops)
    ops[index] = ops[index][:slot] + (value,) + ops[index][slot + 1:]
    mutated = _raw_copy(clean, ops)
    assert not verify_module._operands_screen_clean(mutated)
    with mock.patch.object(verify_module, "_walk_records",
                           wraps=verify_module._walk_records) as walk:
        errors = verify(mutated, dataflow=False).errors
    walk.assert_called_once_with(mutated, cells=False)
    assert (code, index) in {(d.code, d.index) for d in errors}
    assert_error_only_matches(mutated)


def test_a_bool_operand_falls_back_and_passes_like_the_walk():
    # The walk takes True as the int 1; the screen only proves plain
    # ints, so it hands the stream to the walk, which finds nothing.
    clean = _march4()
    index = corpus._first(clean, "w")
    ops = list(clean.ops)
    ops[index] = ops[index][:3] + (True,) + ops[index][4:]
    mutated = _raw_copy(clean, ops)
    assert not verify_module._operands_screen_clean(mutated)
    assert assert_error_only_matches(mutated) == ()


def test_clean_streams_skip_the_walk():
    stream = corpus._schedule16()
    with mock.patch.object(verify_module, "_walk_records",
                           side_effect=AssertionError("walked")):
        assert verify(stream, dataflow=False).ok


def test_a_table_reference_one_past_the_tables_falls_back():
    clean = corpus._schedule16()
    index = corpus._first(clean, "ra")
    ops = list(clean.ops)
    ops[index] = ops[index][:3] + (len(clean.tables),) + ops[index][4:]
    mutated = _raw_copy(clean, ops)
    assert not verify_module._operands_screen_clean(mutated)
    assert ("E203", index) in {(d.code, d.index)
                               for d in assert_error_only_matches(mutated)}


def test_construction_checks_run_once_per_constructed_fields():
    stream = corpus._dual()
    with mock.patch.object(verify_module, "iter_construction_diagnostics",
                           side_effect=AssertionError("checked twice")):
        assert verify(stream, dataflow=False).ok
        assert verify(stream).ok
    # Fields swapped after construction are checked again.
    marker = corpus._first(stream, "grp")
    ops = list(stream.ops)
    ops[marker] = ops[marker][:3] + (0,) + ops[marker][4:]
    stream.ops = tuple(ops)
    errors = assert_error_only_matches(stream)
    assert ("E101", marker) in {(d.code, d.index) for d in errors}
