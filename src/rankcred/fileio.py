"""CSV ingestion and emission of datasets and result artifacts."""

from __future__ import annotations

import csv
import io
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np

from .domain import Dataset, DomainError

# pinned output format: 12 significant digits, '.' decimal, no locale
FMT = "%.12g"


def csv_field(text: str) -> str:
    """`text` as the csv module writes it as one field of a row (QUOTE_MINIMAL);
    the empty second field keeps "" unquoted, as it is in a row of several."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])
    return out.getvalue()[:-2]


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DomainError(f"row {row}, column {column!r}: {text!r} is not a number")
    if not math.isfinite(v):
        raise DomainError(f"row {row}, column {column!r}: non-finite value {text!r}")
    return v


def parse_dataset(path) -> Dataset:
    """Read a dataset from the UTF-8 CSV file at `path` (a str or a Path)."""
    return parse_csv_text(Path(path).read_text(encoding="utf-8"))


def parse_csv_text(text: str) -> Dataset:
    """Parse a dataset from CSV text; one leading byte-order mark, which
    spreadsheet exports write, is skipped.

    Required columns: id, y, d.  Optional: x1..xp (consecutive), gold.
    Column order is free, and no column name repeats.  Row numbers in
    error messages count the header as row 1 and blank lines as rows.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    header = next(reader, None)
    if header is None:
        raise DomainError("empty input: no CSV header found")
    fields = [f.strip() for f in header]
    repeated = [f for f in fields if f and fields.count(f) > 1]
    if repeated:
        raise DomainError(f"header names column {repeated[0]!r} more than once")
    for required in ("id", "y", "d"):
        if required not in fields:
            raise DomainError(f"missing required column {required!r} (found {fields})")
    x_cols = sorted(
        (f for f in fields if re.fullmatch(r"x\d+", f)),
        key=lambda f: int(f[1:]),
    )
    if x_cols != [f"x{k}" for k in range(1, len(x_cols) + 1)]:
        raise DomainError(f"covariate columns must be consecutive x1..xp, found {x_cols}")
    has_gold_col = "gold" in fields

    ids, y, d, x, gold = [], [], [], [], []
    no_gold_row = None  # the first row without a gold value
    for rownum, row in enumerate(reader, start=2):
        if not row:  # a blank line
            continue
        if len(row) != len(fields):
            raise DomainError(f"row {rownum}: {len(row)} fields, but the header has {len(fields)}")
        rec = dict(zip(fields, (v.strip() for v in row)))
        if not rec["id"]:
            raise DomainError(f"row {rownum}, column 'id': empty id")
        ids.append(rec["id"])
        y.append(_parse_float(rec["y"], rownum, "y"))
        d.append(_parse_float(rec["d"], rownum, "d"))
        if d[-1] <= 0:
            raise DomainError(f"row {rownum}, column 'd': d={d[-1]} must be > 0")
        x.append([_parse_float(rec[c], rownum, c) for c in x_cols])
        if has_gold_col and rec["gold"]:
            gold.append(_parse_float(rec["gold"], rownum, "gold"))
        elif no_gold_row is None:
            no_gold_row = rownum
    if not ids:
        raise DomainError("no data rows found")
    if gold and no_gold_row is not None:
        raise DomainError(
            f"row {no_gold_row}, column 'gold': no value; gold values must be present "
            "for all entities or none"
        )
    return Dataset(ids, y, d, x=x, gold=gold or None)


def emit_dataset(ds: Dataset) -> str:
    """Inverse of parse_csv_text (round-trips through the pinned format)."""
    cols = ["id", "y", "d"] + [f"x{k}" for k in range(1, ds.p + 1)]
    table = [ds.y, ds.d, ds.x]
    if ds.has_gold:
        cols.append("gold")
        table.append(ds.gold)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for ident, values in zip(ds.ids, np.column_stack(table).tolist()):
        writer.writerow([ident] + [FMT % v for v in values])
    return out.getvalue()


def baseball_dataset() -> Dataset:
    """The bundled 18-player batting-average fixture."""
    text = resources.files("rankcred.data").joinpath("baseball.csv").read_text()
    return parse_csv_text(text)


def format_matrix(probs: np.ndarray) -> list[str]:
    """Each row of `probs` as one string of comma-separated FMT cells, formed by one call."""
    row_format = ",".join([FMT] * probs.shape[1])
    return [row_format % tuple(row) for row in probs.tolist()]


def write_matrix_csv(path, rows: list[str], ids: list[str]) -> None:
    """m x m credible matrix from its `format_matrix` rows; rows are ranks
    1..m, columns the entities."""
    # a formatted number holds no comma, quote or newline, so only the ids
    # need the csv module's quoting
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerow(["rank"] + ids)
        f.write("".join([f"{k},{row}\n" for k, row in enumerate(rows, start=1)]))


def write_rows_csv(path, header: list[str], rows) -> None:
    """CSV of `header` and `rows`: strings as they are, numbers in FMT."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else FMT % v for v in row])
