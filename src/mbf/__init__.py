"""mbf: exact workbench for matrix bi-factorisations of x^d - y^d and the
matching minimal-model fusing data, with a cross-verification layer."""

__version__ = "0.1.0"


class VerificationError(ValueError):
    """A check on a computed object failed: the computation, not its input,
    is at fault (the CLI maps this to exit 1, not to a usage error)."""
