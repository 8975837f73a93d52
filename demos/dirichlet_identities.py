#!/usr/bin/env python3
"""Characters, Gauss sums, L-functions, and the rational closed forms.

At a = 1/2, 1/3, 1/4, 1/6 every family collapses to a product of elementary
factors with zeta(s) or L(s, chi); for general r/q the families are linear
combinations of L-functions across characters mod q.

Run:  python3 demos/dirichlet_identities.py
"""

from zetazeros import (
    Family,
    characters_mod,
    chi_minus3,
    chi_minus4,
    closed_form_identity,
    f_factor,
    g_factor,
    gauss_sum,
    l_function,
    linear_relation_residual,
)


def main():
    print("Characters mod 12 (value at each residue; . = zero off the units)")
    for chi in characters_mod(12):
        row = " ".join("." if v == 0 else f"{v:+.0f}" if v.imag == 0 else f"{v:+.2f}" for v in chi.values)
        tag = "principal" if chi.is_principal else ("primitive" if chi.is_primitive else f"conductor {chi.conductor}")
        print(f"  parity {chi.parity:+d}  [{row}]  {tag}")
    print()

    print("Gauss sums of the odd quadratic characters")
    print(f"  G(chi mod 4) = {gauss_sum(chi_minus4()):.12f}   (= 2i)")
    print(f"  G(chi mod 3) = {gauss_sum(chi_minus3()):.12f}   (= i sqrt 3)")
    print()

    print("L(2, chi mod 4) is Catalan's constant:")
    print(f"  {l_function(chi_minus4(), 2.0).real:.15f}")
    print()

    print("Closed forms: kernel evaluation vs elementary factorization at s = 2.5")
    for fam, a in ((Family.Z, "1/6"), (Family.P, "1/4"), (Family.Y, "1/3"), (Family.O, "1/6"), (Family.X, "1/4")):
        direct, closed = closed_form_identity(fam, a, 2.5)
        print(f"  {fam.name}(2.5, {a}): direct {direct.real:+.12f}  closed {closed.real:+.12f}  "
              f"gap {abs(direct - closed):.1e}")
    print()

    print("Two-way linear relations (residuals, s = 2 + 3i)")
    s = complex(2.0, 3.0)
    for q in (5, 8, 12):
        fwd = max(linear_relation_residual(f, 1, q, s) for f in (Family.Z, Family.P, Family.Y, Family.O))
        # L-from-family checks P and O on primitive characters only; mod 12 has no odd one
        rev = max(linear_relation_residual(f, 1, q, s, direction="l_from_family")
                  for f in (Family.Z, Family.P, Family.Y, Family.O) if (f, q) != (Family.O, 12))
        print(f"  q = {q:2d}: family-from-L {fwd:.2e}   L-from-family {rev:.2e}")
    print()

    print("The X(s, 1/6) prefactor never vanishes off the critical line:")
    print("  |f(s)| = 3^(sigma - 1/2) and |g(s)| straddle 1 in opposite directions;")
    for sigma in (0.4, 0.5, 0.6):
        s = complex(sigma, 9.0)
        print(f"  sigma = {sigma}: |f| = {abs(f_factor(s)):.6f}  |g| = {abs(g_factor(s)):.6f}")


if __name__ == "__main__":
    main()
