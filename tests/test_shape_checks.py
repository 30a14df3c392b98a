"""Malformed shapes handed to the library's constructors and methods are
refused with the NilnovError subclass that names the fault."""

import pytest

from nilnov import LexOrder, MultiChar, PcGroup, QuotientMap
from nilnov.errors import MismatchedGroup, ParseError, UnknownGenerator


@pytest.mark.parametrize("error,match,build", [
    (MismatchedGroup, "component count", lambda H, F: MultiChar(H, [[1, 0]])),
    (MismatchedGroup, "level 0 expects 2 values", lambda H, F: MultiChar(H, [[1], [1]])),
    (MismatchedGroup, "level 0 rows must have length 2",
     lambda H, F: LexOrder(H, {0: [[1, 0, 0]]})),
    (MismatchedGroup, "compare expects normal forms",
     lambda H, F: LexOrder(H).compare([(0, 1)], ())),
    (UnknownGenerator, "bad generator index", lambda H, F: PcGroup("G", [["a", "b"]], {(2, 0): []})),
    (ParseError, "later generator first", lambda H, F: PcGroup("G", [["a", "b"]], {(0, 1): []})),
    (MismatchedGroup, "one image per generator", lambda H, F: QuotientMap(F, H, [H.generator(0)])),
], ids=["mchar-component-count", "mchar-value-count", "lexorder-row-length",
        "lexorder-compare-list", "pc-tail-index", "pc-tail-order", "quotient-image-count"])
def test_malformed_shape_is_refused(heis, f2, error, match, build):
    with pytest.raises(error, match=match) as err:
        build(heis, f2)
    assert err.type is error
