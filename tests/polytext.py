"""Polynomials as expression text, for tests that hold the
coefficient-built maps to a parsed reference with the same coefficients."""

import numpy as np


def poly_text(rng: np.random.Generator, monomials: list[str],
              scale: float) -> str:
    """One component: rng.uniform(-1, 1) * scale per monomial, in order,
    the draws `expr._random_poly` makes for one row."""
    coeffs = rng.uniform(-1.0, 1.0, size=len(monomials)) * scale
    return " + ".join(f"({float(c)!r})*{m}"
                      for c, m in zip(coeffs, monomials))


def coeff_text(coeffs: np.ndarray, names: list[str]) -> str:
    """One component from a dense coefficient array: the entry at index
    (e_1, ..., e_k) multiplies names[0]^e_1 * ... * names[k-1]^e_k."""
    terms = []
    for index in np.ndindex(*coeffs.shape):
        powers = [name for power, name in zip(index, names)
                  for _ in range(power)]
        terms.append(" * ".join([repr(float(coeffs[index]))] + powers))
    return " + ".join(terms)
