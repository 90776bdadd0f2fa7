"""What the natural-module split extension adds to a spectrum, and why.

The pair (v, s) has order |s| unless the power sum of s kills v, in which
case the order picks up a factor of p. Frobenius subgroups make that
predictable: a kernel element times a complement generator always gains p.
"""

from omega.groups import parse_group_spec
from omega.oracle import (
    ModuleAction,
    classical_generators,
    frobenius_witness,
    semidirect_spectrum,
    spectrum_table,
    verify_frobenius,
)

for name in ("A(1,4)u", "C(2,2)u", "C(2,4)u"):
    spec = parse_group_spec(name)
    base = set(spectrum_table(spec).spectrum)
    cover = set(semidirect_spectrum(ModuleAction(classical_generators(spec))).spectrum)
    gained = sorted(cover - base)
    print(f"{name}: gains {gained or 'nothing'}")

print()
w = frobenius_witness("sp-torus", (2, 4))
v = verify_frobenius(w.kernel_gens, w.complement_gens)
print(f"sp-torus witness in C(2,4)u: kernel {v.kernel_order}, "
      f"complement {v.complement_order}, verified={v.ok}")
print("so 2 * 4 = 8 must appear in the extension spectrum; see the gain above")

w = frobenius_witness("sl-hyperplane", (3, 4))
v = verify_frobenius(w.kernel_gens, w.complement_gens)
print(f"sl-hyperplane witness in A(2,4)u: kernel {v.kernel_order}, "
      f"complement {v.complement_order}, verified={v.ok}")
