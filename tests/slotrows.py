"""Slot rows found by exponent, one at a time, for the loop references
that the tabled kernels are held to."""


def shifted(ctx, row: int, var: int) -> int:
    """Row of mu + e_var in ctx, or -1 when that leaves the truncation."""
    mu = [int(e) for e in ctx.midx[row]]
    mu[var] += 1
    return ctx.position.get(tuple(mu), -1)
