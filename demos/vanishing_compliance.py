"""The crack grid whose penalized compliance has no minimizer.

Scatter (2n)^2 tiny cracks over the box, shrinking each so the total
length stays constant. Splitting the box into cubes and solving a
free-boundary problem in each one glues into a global dual flux whose
norm bounds the compliance from above, and that norm drains to zero as
n grows. The penalized objective therefore slides down toward the bare
length penalty, but no single crack set ever reaches it: the infimum
is not attained.
"""

from pcompliance import connected_baseline, vanishing_sequence_experiment

report = vanishing_sequence_experiment([1, 2, 4], 0.25, 2.0,
                                       divergence_samples=5)

print(f"p = {report.p}, epsilon = {report.epsilon}, "
      f"length penalty {report.length_penalty}")
print(f"{'n':>3} {'cracks':>7} {'flux norm':>11} {'capacity':>9} "
      f"{'penalized':>10} {'div check':>10}")
for r in report.rows:
    print(f"{r.n:3d} {(2 * r.n) ** 2:7d} {r.flux_pnorm:11.6f} "
          f"{r.capacity:9.5f} {r.penalized_value:10.6f} "
          f"{r.divergence_max_relative:10.2e}")
print(f"capacity bound (frozen headroom {report.tilde_c:.4f}, "
      f"safety {report.bound_safety}) satisfied: {report.bound_satisfied}")
if report.decay is not None:
    print(f"fitted flux decay: ~ n^{report.decay.slope:.2f}")

# one connected crack with the same total length cannot compete
base = connected_baseline(0.25, 2.0, nodes_per_side=129)
print(f"\nconnected segment of equal length: "
      f"penalized value {base.penalized_objective:.6f}")
print(f"scattered grid at n = {report.rows[-1].n}:           "
      f"penalized value {report.rows[-1].penalized_value:.6f}")
print(f"total crack length in both cases:  "
      f"{report.rows[-1].crack_length:.6f}")
