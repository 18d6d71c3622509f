"""Property tests for the input boundaries.

Every parser, fed any text, either returns a value or raises
:class:`MalformedInput`; the CLI, fed any report, exits with a documented
code.  Texts are arbitrary strings and random edits of the bundled
fixtures, so most examples get past the first line of each parser.
"""

import io
import json
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulift.cli import cli_main
from cumulift.errors import MalformedInput
from cumulift.fixtures import FIXTURE_FILES, FIXTURE_SM
from cumulift.instance import (
    VALUE_LIMIT,
    InstanceKind,
    PrecedenceArc,
    Resource,
    SchedulingInstance,
    Task,
    encode_canonical,
    parse_canonical,
)
from cumulift.lifting import run_pipeline
from cumulift.parsers import InstanceFormat, detect_format, parse_instance
from cumulift.report import emit_report, parse_report

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)
DIGITS = "1" * 5000  # past Python's 4300-digit int conversion limit

TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.just(DIGITS),
    st.sampled_from(["", "x", "[", "]", "-", "1.5", "*", ":", "\n"]),
    st.text(max_size=3),
)

INTEGERS = st.integers(-2**70, 2**70) | st.sampled_from([-1, 0, 1, VALUE_LIMIT - 1, VALUE_LIMIT])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.text(max_size=4)
    | st.sampled_from(["1/2", "RCPSP", "cumulift-report/1"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)

REPORT = emit_report(run_pipeline(parse_instance(FIXTURE_SM, InstanceFormat.PSPLIB_SM)))


@st.composite
def edited_text(draw, text):
    """``text`` with a few of its numbers replaced and lines dropped or repeated.

    A replaced number is drawn either from all numbers of the text or from
    one line drawn first, so a header line with a single number is edited
    as often as a data row with ten.
    """
    for _ in range(draw(st.integers(1, 4))):
        spans = [match.span() for match in re.finditer(r"-?\d+", text)]
        lines = text.splitlines(keepends=True)
        edit = draw(st.sampled_from(["number", "line, then number", "line"]))
        if spans and edit == "line, then number":
            rows = [text.count("\n", 0, start) for start, _ in spans]
            row = draw(st.sampled_from(sorted(set(rows))))
            spans = [span for span, r in zip(spans, rows) if r == row]
        if spans and edit != "line":
            start, end = draw(st.sampled_from(spans))
            text = text[:start] + draw(TOKENS) + text[end:]
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2]))
            text = "".join(lines)
    return text


def _paths(node, prefix=()):
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        keys = []
    for key in keys:
        yield prefix + (key,)
        yield from _paths(node[key], prefix + (key,))


@st.composite
def edited_json(draw, text):
    """The JSON document ``text`` with a few values replaced by random JSON."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(INTEGERS | JSON_VALUES)
    return json.dumps(doc)


def parses_or_rejects(parse, text):
    """parse(text), or None when it raises MalformedInput."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # trailing-data warnings
        try:
            return parse(text)
        except MalformedInput:
            return None


@pytest.mark.parametrize("filename", sorted(FIXTURE_FILES))
class TestParsersNeverCrash:
    @FUZZ
    @given(text=st.text(max_size=300))
    def test_arbitrary_text(self, filename, text):
        fmt = detect_format(filename)
        parses_or_rejects(lambda t: parse_instance(t, fmt), text)

    @FUZZ
    @given(data=st.data())
    def test_edited_fixture(self, filename, data):
        fmt = detect_format(filename)
        text = data.draw(edited_text(FIXTURE_FILES[filename]))
        parses_or_rejects(lambda t: parse_instance(t, fmt), text)


@FUZZ
@given(text=edited_json(FIXTURE_FILES["fixture.json"]) | JSON_VALUES.map(json.dumps))
def test_canonical_json_never_crashes(text):
    parses_or_rejects(parse_canonical, text)


@FUZZ
@given(text=st.text(max_size=300) | edited_json(REPORT) | JSON_VALUES.map(json.dumps))
def test_parse_report_never_crashes(text):
    report = parses_or_rejects(parse_report, text)
    for constraint in report.constraints if report is not None else ():
        values = [usage for _, usage in constraint.usages] + [constraint.capacity]
        assert all(0 <= value < VALUE_LIMIT for value in values)


@pytest.mark.parametrize(
    "parse, text",
    [
        (lambda t: parse_instance(t, InstanceFormat.PSPLIB_SM),
         FIXTURE_SM.replace("horizon                       :  12", "horizon : " + DIGITS)),
        (lambda t: parse_instance(t, InstanceFormat.PSPLIB_SM),
         FIXTURE_SM.replace("\n   7\n", "\n   " + DIGITS + "\n")),
        (parse_canonical, '{"tasks": [{"duration": ' + DIGITS + ', "demands": []}]}'),
        (parse_report, '{"schema": "cumulift-report/1", "searchless_lb": ' + DIGITS + "}"),
    ],
    ids=["sm-header", "sm-capacity", "canonical-json", "report"],
)
def test_overlong_integer_literals_are_malformed(parse, text):
    with pytest.raises(MalformedInput):
        parse(text)


@FUZZ
@given(text=edited_json(REPORT))
def test_cli_maps_any_report_to_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        instance_path = os.path.join(tmp, "fixture.sm")
        report_path = os.path.join(tmp, "report.json")
        with open(instance_path, "w", encoding="utf-8") as handle:
            handle.write(FIXTURE_SM)
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            checked = cli_main(["check", report_path, "--instance", instance_path])
            emitted = cli_main(["emit", instance_path, "--report", report_path])
    assert checked in (0, 2, 4)
    assert emitted in (0, 2)


@st.composite
def instances(draw):
    """A valid SchedulingInstance of up to six tasks and three resources."""
    kind = draw(st.sampled_from(list(InstanceKind)))
    values = st.integers(0, VALUE_LIMIT - 1)
    n_res = draw(st.integers(0, 3))
    tasks = tuple(
        Task(id=i, duration=draw(values), demands=tuple(draw(values) for _ in range(n_res)))
        for i in range(draw(st.integers(0, 6)))
    )
    precedences = []
    if len(tasks) >= 2:
        for _ in range(draw(st.integers(0, 6))):
            a, b = draw(st.lists(st.integers(0, len(tasks) - 1), min_size=2, max_size=2,
                                 unique=True))
            offset = (tasks[a].duration if kind is InstanceKind.RCPSP
                      else draw(st.integers(-VALUE_LIMIT + 1, VALUE_LIMIT - 1)))
            precedences.append(PrecedenceArc(a, b, offset))
    return SchedulingInstance(
        name=draw(st.text(max_size=8)),
        kind=kind,
        tasks=tasks,
        resources=tuple(Resource(id=r, capacity=draw(values)) for r in range(n_res)),
        precedences=tuple(precedences),
        horizon=draw(st.none() | values),
    )


@FUZZ
@given(instance=instances())
def test_canonical_round_trip(instance):
    instance.validate()
    assert parse_canonical(encode_canonical(instance)) == instance
