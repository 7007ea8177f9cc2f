"""Building blocks behind the routing formulas.

Shows, for a growing order-size mean, the quantities the heuristics are
assembled from: the furthest occupied aisle, the furthest item location in an
aisle, the largest skippable gap, and the number of occupied aisles.
"""
from pickroute import Geometric, ShiftedPoisson
from pickroute.prelim import (
    AisleModel,
    far_item_moments,
    gap_moments,
    kplus_moments,
    occupancy_law,
)

K = 8
print(f"warehouse with k = {K} aisles, geometric vs shifted-Poisson order sizes\n")
header = (f"{'mean':>5} {'E[kplus]':>9} {'E[A]':>7} {'E[1-D]':>7} "
          f"{'E[#occupied]':>13} {'P(odd count)':>13}")
for name, make in (("geometric", lambda m: Geometric(1 / m)),
                   ("shifted-Poisson", lambda m: ShiftedPoisson(m - 1))):
    print(name)
    print(header)
    for mean in (2, 4, 8, 16, 32, 64):
        model = AisleModel(K, make(mean))
        kp, _, _ = kplus_moments(model)
        a, _, _ = far_item_moments(model)
        g, _, _ = gap_moments(model)
        pmf, occ_mean, _ = occupancy_law(model)
        print(f"{mean:5d} {kp:9.3f} {a:7.3f} {g:7.3f} {occ_mean:13.3f} "
              f"{sum(pmf[::2]):13.3f}")
    print()

print("interpretation: with more items per order the picker must reach the far")
print("aisle (E[kplus] -> k), walk deeper into each aisle (E[A] -> 1), and the")
print("skippable gap shrinks; geometric orders keep more mass on small orders,")
print("so every travel driver stays smaller at equal mean.")
