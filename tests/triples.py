"""Every triple 2 <= a <= b <= c <= bound, in the order verify walks them."""

from itertools import combinations_with_replacement, starmap

from brieskorn.ring import BrieskornTriple


def triples(bound: int):
    return starmap(BrieskornTriple, combinations_with_replacement(range(2, bound + 1), 3))
