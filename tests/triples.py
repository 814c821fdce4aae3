"""Every triple 2 <= a <= b <= c <= bound, in the order verify walks them; the
golden table of known values that the known-values tests of each module read; and
the p_g tables of acceptance criterion 2."""

from collections import namedtuple
from itertools import combinations_with_replacement, starmap

from brieskorn.genus import geometric_genus
from brieskorn.ring import BrieskornTriple


def triples(bound: int):
    return starmap(BrieskornTriple, combinations_with_replacement(range(2, bound + 1), 3))


# p_g, p_f, nr(m), q(n*m) for n = 0..nr + 1, v_n for n = 0..nr, and the normal
# Hilbert coefficients (e0, e1, e2)
Golden = namedtuple("Golden", "pg pf nr q v hilbert")
GOLDEN = {
    (2, 3, 5): Golden(0, 0, 1, (0, 0, 0), (1, 0), (2, 1, 0)),
    (2, 3, 7): Golden(1, 1, 1, (1, 1, 1), (1, 0), (2, 1, 0)),
    (2, 4, 5): Golden(1, 1, 2, (1, 0, 0, 0), (1, 1, 0), (2, 2, 1)),
    (2, 6, 10): Golden(4, 2, 3, (4, 2, 1, 1, 1), (1, 1, 1, 0), (2, 3, 3)),
    (3, 3, 5): Golden(1, 1, 2, (1, 0, 0, 0), (2, 1, 0), (3, 3, 1)),
    (3, 4, 7): Golden(3, 2, 2, (3, 2, 2, 2), (2, 1, 0), (3, 3, 1)),
    (3, 5, 8): Golden(6, 3, 3, (6, 4, 3, 3, 3), (2, 1, 1, 0), (3, 4, 3)),
}


def off_golden(field: str, compute) -> dict:
    """Each golden triple where compute(triple) is not the table's field: both values."""
    found = {abc: (compute(BrieskornTriple(*abc)), getattr(row, field))
             for abc, row in GOLDEN.items()}
    return {abc: values for abc, values in found.items() if values[0] != values[1]}


# p_g by (a, b, c) on the families (2,3,6p+1), (2,4,4p+1), p <= 10, and on the
# (2, 6) and (2, 7) tables, k <= 4.  The (2, 6) table has twelve residues with
# period 12 in c (the stated period 10 is inconsistent with the listed residues
# i = 0..11 and with the boundary classification at (2, 6, 6..8); period 12
# reproduces exactly).
PG_TABLES = {
    "(2,3,6p+1)": {(2, 3, 6 * p + 1): p for p in range(1, 11)},
    "(2,4,4p+1)": {(2, 4, 4 * p + 1): p for p in range(1, 11)},
    "(2,6)": {
        (2, 6, 12 * k + i): 6 * k + off
        for k in range(1, 5)
        for i, off in enumerate([0, 0, 0, 1, 1, 1, 3, 3, 3, 4, 4, 4])
    },
    "(2,7)": {
        (2, 7, 14 * k + i): 9 * k + off
        for k in range(1, 5)
        for i, off in enumerate([0, 0, 0, 1, 1, 2, 3, 3, 3, 4, 5, 5, 6, 6])
    },
}


def pg_table_failures() -> list[tuple[int, int, int]]:
    """Each triple of every table whose p_g is not the table's."""
    return [abc for table in PG_TABLES.values() for abc, pg in table.items()
            if geometric_genus(BrieskornTriple(*abc)) != pg]
