"""Exact construction and certification of characteristic polynomials of
simple ordinary abelian varieties over finite fields."""
