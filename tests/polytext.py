"""Random polynomials as expression text, for tests that hold the
coefficient-built maps to a parsed reference drawn the same way."""

import numpy as np


def poly_text(rng: np.random.Generator, monomials: list[str],
              scale: float) -> str:
    """One component: rng.uniform(-1, 1) * scale per monomial, in order,
    the draws `expr._random_poly` makes for one row."""
    coeffs = rng.uniform(-1.0, 1.0, size=len(monomials)) * scale
    return " + ".join(f"({float(c)!r})*{m}"
                      for c, m in zip(coeffs, monomials))
