"""Report text, written chunk by chunk so a report is never one string.

JSON is the text of ``json.dumps(report, sort_keys=True, indent=2)``,
with each table through the C encoder; CSV is a header line and one line
per record.  A table is at most ``TABLE_BATCH`` rows per chunk in both.
A table, or any list of the report, may also be a one-pass iterator,
which renders as the list of its items; it is read one chunk at a time,
so its rows need never be held at once.  The batch is small because the
C encoder holds every fragment string of a batch until it joins them,
about 1.1 KB per row of a 4-field ``cc`` sweep: 128 rows keep that near
0.14 MB.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain, islice

TABLE_BATCH = 128  # table rows per report chunk
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _batches(rows):
    """The items of ``rows``, a sequence or an iterator, in lists of at
    most ``TABLE_BATCH``, read in one pass."""
    rows = iter(rows)
    while batch := list(islice(rows, TABLE_BATCH)):
        yield batch


def render_csv(header, records):
    """The text of the CSV report: the header, then one line per record, in
    blocks of at most ``TABLE_BATCH`` lines."""
    yield ",".join(header) + "\n"
    for batch in _batches(records):
        yield "".join(
            ",".join(_csv_cell(record[column]) for column in header) + "\n"
            for record in batch
        )


def _is_table(rows) -> bool:
    """Whether ``rows`` is a report table: a non-empty list of non-empty
    dicts whose values are all strings, numbers, bools or None."""
    return (
        set(map(type, rows)) == {dict}
        and all(rows)
        and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, rows))))
    )


def render_json(value, indent: str = ""):
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, in chunks,
    for a value nested at ``indent``.

    With ``indent`` set, the stdlib encoder falls back to pure Python and
    encodes token by token.  Here a list or iterator is read in batches of
    ``TABLE_BATCH`` items, and a batch that is a table goes through the C
    encoder in one ``json.dumps`` call, with ``,\\n`` plus the field
    indent as the separator of both rows and fields.  The encoder escapes
    every newline inside a string, so ``},`` + that separator + ``{``
    falls only between two rows, where one ``str.replace`` puts the braces
    on lines of their own.  Items of other batches and dicts recurse, and
    scalars are ``json.dumps`` of themselves.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        separator = "{\n" + inner
        for key, item in sorted(value.items()):
            # the encoder writes a non-string key as its JSON text, quoted
            yield separator + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from render_json(item, inner)
            separator = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple, Iterator)):
        opening = separator = "[\n" + inner
        field = "\n" + inner + "  "
        row_open, row_close = "{" + field, "\n" + inner + "}"
        boundary = row_close + ",\n" + inner + row_open
        for batch in _batches(value):
            if _is_table(batch):
                text = json.dumps(batch, sort_keys=True, separators=("," + field, ": "))
                yield separator + row_open  # not joined to the batch: one copy fewer
                yield text[2:-2].replace("}," + field + "{", boundary)  # text is [{...}]
                yield row_close
                separator = ",\n" + inner
            else:
                for item in batch:
                    yield separator
                    yield from render_json(item, inner)
                    separator = ",\n" + inner
        yield "[]" if separator == opening else "\n" + indent + "]"
    else:
        yield json.dumps(value)
