"""Arbitrary-precision rationals: gmpy2.mpq when available, fractions.Fraction otherwise.

Rat is used only at the edges of the exact side: parsing and printing
coefficients, the coefficient view ``Cyclo.coeffs``, the Euclidean algorithm
behind ``Cyclo.inverse`` and R-charges.  ``Cyclo`` arithmetic itself runs on
Python ints over a common denominator (see ``exactalg``), so which type is
active no longer changes its speed.  Both types share the slice of API used
here (ring ops, comparisons, hashing, .numerator/.denominator).
"""

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only on gmpy2-less installs
    from fractions import Fraction as Rat

RAT_ONE = Rat(1)


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
