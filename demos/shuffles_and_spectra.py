# Number-theory gems: how many perfect shuffles recycle a deck, and how
# two irrational numbers can tile the integers between them.

from certiprob import (
    QuadSurd,
    beatty_pair_check,
    in_shuffled,
    monge_shuffled,
    shuffle_order,
    spectrum,
    triple_spectrum_search,
    wythoff_cold,
)
from certiprob.gems import monge_order

# --- perfect shuffles -----------------------------------------------------
print("one perfect in-shuffle of 8 cards:", tuple(in_shuffled(8, 1)))
print("\nshuffles needed to restore a deck (order of 2 mod 2n+1):")
print("2n:", *[f"{d:>3}" for d in range(2, 27, 2)])
print("r :", *[f"{shuffle_order(d):>3}" for d in range(2, 27, 2)])
print("2n:", *[f"{d:>3}" for d in range(28, 53, 2)])
print("r :", *[f"{shuffle_order(d):>3}" for d in range(28, 53, 2)])
print(f"\na 52-card deck needs all of {shuffle_order(52)} shuffles;"
      f" the over-under shuffle needs {monge_order(52)}")
print("over-under on 8 cards:", tuple(monge_shuffled(8, 1)))

# --- Beatty spectra ---------------------------------------------------------
phi = QuadSurd.golden()
print("\nspectrum of the golden ratio:", spectrum(phi, 40).values)
print("spectrum of its partner    :", spectrum(phi.pair_partner(), 40).values)
report = beatty_pair_check(phi, 10**5)
print(f"disjoint: {report.disjoint}, covers 1..1e5: {report.covers} "
      "(every floor certified in integer arithmetic)")

# three spectra can never tile: a witness always appears
res = triple_spectrum_search([QuadSurd.sqrt(2), QuadSurd.sqrt(3), QuadSurd.sqrt(5)], 10**4)
print(f"\nthree spectra sqrt(2), sqrt(3), sqrt(5): first defect at "
      f"{res.witness} ({res.kind})")

# --- Wythoff's game ---------------------------------------------------------
print("\ncold positions of Wythoff's game (lose if you must move):")
print(wythoff_cold(8))
