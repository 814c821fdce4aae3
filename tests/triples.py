"""Every triple 2 <= a <= b <= c <= bound, in the order verify walks them, and the
golden table of known values that the known-values tests of each module read."""

from collections import namedtuple
from itertools import combinations_with_replacement, starmap

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
