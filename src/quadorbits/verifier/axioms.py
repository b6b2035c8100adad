"""The classification facts consumed as named axioms.

These are Poonen's classification theorems for rational preperiodic points
of quadratic polynomials (B. Poonen, "The classification of rational
preperiodic points of quadratic polynomials over Q: a refined conjecture",
Math. Z. 228 (1998), Theorems 1-3).  They are used, never re-proved, and
every verification step that invokes one names it, keeping the
conditionality on max exact period <= 3 visible in the audit trail.
"""

from __future__ import annotations

from typing import NamedTuple

from ..dynamics import QuadMap
from ..rationals import exact_rational

__all__ = ["PoonenAxiom", "POONEN_AXIOMS", "poonen_criterion"]


class PoonenAxiom(NamedTuple):
    name: str
    statement: str
    citation: str


_CITE = ("B. Poonen, The classification of rational preperiodic points of "
         "quadratic polynomials over Q, Math. Z. 228 (1998), Theorems 1-3")

POONEN_AXIOMS: dict[str, PoonenAxiom] = {
    "periods-at-most-3": PoonenAxiom(
        "periods-at-most-3",
        "under the standing hypothesis mu_S(Q) <= 3, no map x^2 + c with "
        "c in Q has a rational point of exact period greater than 3",
        _CITE,
    ),
    "tail-two": PoonenAxiom(
        "tail-two",
        "if x^2 + c has a rational periodic point of period 1 or 2 and "
        "mu <= 3, every rational preperiodic point lands on a fixed point "
        "or 2-cycle within two steps: f^4(x) = f^2(x)",
        _CITE,
    ),
    "three-cycle-funnel": PoonenAxiom(
        "three-cycle-funnel",
        "if x^2 + c has a rational 3-cycle and mu <= 3, every rational "
        "preperiodic orbit passes through that 3-cycle (for c != -29/16 "
        "the image of a preperiodic point already lies on the cycle)",
        _CITE,
    ),
}


def poonen_criterion(f: QuadMap, x) -> bool:
    """Exact test f^4(x) = f^2(x).

    By the "tail-two" axiom this holds for every rational preperiodic point
    of a map with a rational fixed point or 2-cycle (assuming mu <= 3), so
    failing it certifies non-preperiodicity.
    """
    x = exact_rational(x)
    f2 = f(f(x))
    return f(f(f2)) == f2
