"""Arbitrary-precision rationals: ``Rat`` is ``fractions.Fraction``.

Rat is used only at the edges of the exact side: parsing and printing
coefficients, the coefficient view ``Cyclo.coeffs`` and R-charges.  ``Cyclo`` arithmetic itself runs on
Python ints over a common denominator (see ``exactalg``).
"""

from fractions import Fraction as Rat


def rat_str(r) -> str:
    """Render a rational as 'p' or 'p/q' (canonical, q > 0)."""
    num, den = r.numerator, r.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rat(text: str):
    """Parse 'p' or 'p/q' into a Rat."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Rat(int(num), int(den))
    return Rat(int(s))
