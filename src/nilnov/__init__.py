"""Exact computation in group rings of torsion-free nilpotent groups:
collection in adapted polycyclic presentations, rational multicharacters
and lexicographic bi-orders, truncated Novikov-ring arithmetic with
certified inversion, Fox calculus of finite presentations, and Novikov
(co)homology with a sign-sweep criterion for cohomological-dimension
drops of conilpotent kernels.
"""

__version__ = "0.1.0"

from .charorder import (LexOrder, MultiChar, fit_character, fit_multicharacter,
                        is_compatible, parse_mchar)
from .fields import GF, QQ
from .groupring import FreeGroup, GroupRing, RingElt, augment, ring_mul
from .homology import (CriterionVerdict, RankReport, betti, euler_check,
                       nov_cohomology, theorem_f)
from .iterfrac import Node, frac_from_ring_elt, frac_invert
from .novikov import (NovContext, NovSeries, Trunc, expand, format_series,
                      nov_invert, series_from_elt)
from .pcgroup import (PcGroup, Subgroup, free_abelianization_refine,
                      isolator, lower_central_series, parse_pc)
from .presentations import (FreeChainComplex, Presentation, QuotientMap,
                            fox_complex, nilpotent_quotient,
                            parse_presentation)

__all__ = [
    "LexOrder", "MultiChar", "fit_character",
    "fit_multicharacter", "is_compatible", "parse_mchar",
    "GF", "QQ",
    "FreeGroup", "GroupRing", "RingElt", "augment", "ring_mul",
    "CriterionVerdict", "RankReport", "betti", "euler_check",
    "nov_cohomology", "theorem_f",
    "Node",
    "NovContext", "NovSeries", "Trunc", "expand", "format_series",
    "frac_from_ring_elt", "frac_invert", "nov_invert", "series_from_elt",
    "PcGroup", "Subgroup", "free_abelianization_refine",
    "isolator", "lower_central_series", "parse_pc",
    "FreeChainComplex", "Presentation", "QuotientMap", "fox_complex",
    "nilpotent_quotient", "parse_presentation",
]
