"""The JSON report renderer writes the bytes of the stdlib encoder."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosonqec.cli import main
from bosonqec.report import TABLE_BATCH, render_csv, render_json

# the characters a table's row boundaries are found by, characters JSON
# escapes, and text outside ASCII
texts = st.text('{},":[]\n\r\t\\/ a\xe9\u20ac\x00\x1f\x7f\u2028\ud800\U0001f600', max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
)
rows = st.dictionaries(texts, scalars, min_size=1, max_size=5)
values = st.recursive(
    scalars | st.lists(rows, min_size=1, max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(texts, children, max_size=5)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=30,
)


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(values)
@example(math.nan)
@example([math.inf, -math.inf, -0.0, True, False, None])
@example({"a": {}, "b": [], "c": [{}], "d": [[]], "e": [{"x": []}]})
@example({"table": [{"s": '},\n      {"'}, {"s": "}\n{"}, {"t": 1.5, "s": "é"}]})
@example([[1, 2.5, "x"], [[None]], [{"a": 1}, 2]])
def test_render_json_is_the_stdlib_text(value):
    assert "".join(render_json(value)) == stdlib(value)


# sizes at the batch's own boundaries, and at those of several batches:
# 1024 rows are a whole number of batches of any power-of-two size up to 1024
BOUNDARY_SIZES = sorted(
    {1, TABLE_BATCH - 1, TABLE_BATCH, TABLE_BATCH + 1, 3 * TABLE_BATCH, 1023, 1024, 1025, 3072}
)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_tables_across_batch_boundaries(n):
    table = [
        {"i": i, "x": i / 7, "s": "}," + "\n" * (i % 2) + "{", "flag": i % 3 == 0, "none": None}
        for i in range(n)
    ]
    value = {"results": {"sweep": table, "nested": [table[:2], {"rows": table[-3:]}]}}
    assert "".join(render_json(value)) == stdlib(value)


@pytest.mark.parametrize("n", sorted({0, TABLE_BATCH, TABLE_BATCH + 1, 1024, 1025}))
def test_an_iterator_renders_as_the_list_of_its_rows(n):
    # a table may be a one-pass iterator, read one batch at a time
    header = ["i", "x", "s"]
    table = [{"i": i, "x": i / 7, "s": "}," + "\n" * (i % 2) + "{"} for i in range(n)]
    value = {"results": {"sweep": iter(table), "nested": [iter(table[:2]), iter([])]}}
    listed = {"results": {"sweep": table, "nested": [table[:2], []]}}
    assert "".join(render_json(value)) == stdlib(listed)
    assert "".join(render_csv(header, iter(table))) == "".join(render_csv(header, table))


COMMANDS = [
    ["table1", "--max-w", "2", "--max-k", "2"],
    ["codeword", "--w", "2", "--k", "2", "--label", "10"],
    ["verify", "--w", "2", "--k", "1"],
    ["scaling", "--w", "1", "--k", "1"],
    ["syndrome", "--w", "2", "--k", "2"],
    ["encode", "--w", "2", "--alpha", "0.6", "--beta", "0.8"],
    ["cc", "--family", "ext-bin", "--w", "2", "--k", "2", "--num-random", "1500"],
    ["budget", "--nc", "82"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_report_is_the_stdlib_text_of_its_own_value(tmp_path, argv):
    # floats round-trip through repr, so re-encoding the parsed report
    # gives the text the stdlib encoder writes for the report's value
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) in (0, 1)
    text = out.read_text(encoding="utf-8")
    assert text == stdlib(json.loads(text)) + "\n"
