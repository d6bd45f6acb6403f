import csv
import io

import numpy as np
import pytest

from mdpvol import DomainError
from mdpvol.reporting import write_csv

HEADER = ("name", "a", "b", "c")
ROWS = [
    ("gamma", -0.0, float("nan"), float("inf")),
    ("speed", float("-inf"), 5e-324, 1e308),
    ("x_or_k", np.float64(-0.0), np.float64(1 / 3), np.float64(-2.5e-300)),
    ("small_time_call", 7, -12, 0),
    ("", "", 0.1, ""),
    ("rv_option_ldp", 1.0, -1e-17, 123456789.123456789),
]


def reference_csv(header, rows) -> bytes:
    """The csv module with 17 significant digits and -0.0 folded into 0."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v + 0.0:.17g}" if isinstance(v, float) else str(v)
                         for v in row])
    return buffer.getvalue().encode("utf-8")


def test_matches_csv_module(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), HEADER, iter(ROWS))
    assert path.read_bytes() == reference_csv(HEADER, ROWS)
    assert b"-0," not in path.read_bytes()


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "a\rb", "a\nb", ("t", 1)])
def test_cell_that_needs_quoting_is_refused(tmp_path, cell):
    path = tmp_path / "table.csv"
    with pytest.raises(DomainError, match="not quoted"):
        write_csv(str(path), HEADER, ROWS + [("name", 1.0, cell, 2.0)])
    assert not path.exists()



@pytest.mark.parametrize("row", [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0), ()])
def test_row_of_wrong_length_is_refused(tmp_path, row):
    path = tmp_path / "table.csv"
    with pytest.raises(DomainError, match="4 cells"):
        write_csv(str(path), HEADER, ROWS + [row])
    assert not path.exists()
