"""Walk Radford's theorem on the Sweedler algebra, end to end.

H4 projects onto kC2 by killing x; the kernel of that projection is a
two-dimensional braided Hopf algebra (the quantum line at q = -1), and
bosonising it against kC2 rebuilds H4 on the nose.
"""

from hopfforge import fixtures
from hopfforge.hopf import check_hopf
from hopfforge.radford import bosonisation, induced_braided_hopf, radford_iso
from hopfforge.yd import yd_braiding


def show(m, title):
    print(f"\n{title}  ({m.dom.dim} -> {m.cod.dim})")
    rows = m.to_rows()
    for i, row in enumerate(rows):
        cells = " ".join(f"{v!s:>4}" for v in row)
        print(f"  {m.cod.label(i):>4} | {cells}")


p = fixtures.builtin_raw("proj-sweedler")
print(f"projection: {p.big.name} -> {p.small.name}")

res = induced_braided_hopf(p)
a = res.braided
print(f"kernel basis: {a.space.labels}")

show(a.comul, "braided coproduct (x is primitive)")
show(yd_braiding(a.carrier, a.carrier), "braiding R' (the -1 at x(x)x)")
show(a.antipode, "braided antipode")

boso = bosonisation(a)
rep = check_hopf(boso)
print(f"\nbosonisation {boso.name}: dim {boso.dim},",
      "all axioms pass" if rep.ok else "AXIOMS FAIL")

psi, phi, iso_rep = radford_iso(p, res)
show(psi, "Psi: H4 -> kernel (x) kC2")
print("\niso checks:", "all pass" if iso_rep.ok else iso_rep.format_text())
