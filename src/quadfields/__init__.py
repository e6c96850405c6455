"""Exact census of quadratic fields generated by u(n) = f(g^n), the
square-sieve detector over harvested prime sets, character-sum identities,
and the exponent calculus tying them together."""

from .arith import InvariantError
from .sequences import Polynomial, SequenceSpec, u_eval, u_eval_mod, validate

__version__ = "0.1.0"

__all__ = [
    "InvariantError",
    "Polynomial",
    "SequenceSpec",
    "validate",
    "u_eval",
    "u_eval_mod",
    "__version__",
]
