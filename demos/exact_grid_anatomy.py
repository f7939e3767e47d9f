"""Anatomy of a hyper-grid environment under exact evaluation.

Enumerates a small grid, builds the ground-truth flow from the reward
table, and confirms that following the induced forward policy terminates
at every cell exactly in proportion to its reward.  Everything here is
dynamic programming; no sampling, no training.
"""

import numpy as np

from gflow import HyperGrid
from gflow import exact


def main():
    env = HyperGrid(2, 8)
    enum = env.enumeration()
    print(f"grid 8x8: {enum.n} states, {len(enum.layers)} layers, "
          f"{enum.terminal.sum()} terminal cells, Z = {enum.partition():.4f}")

    # The reward table induces a unique flow once a backward kernel is
    # fixed (uniform here).  The returned forward table is the policy that
    # transports reward mass exactly.
    fwd_log, bwd_log, log_z_star, log_flow = exact.flow_from_rewards(enum)
    print(f"log Z* = {log_z_star:.6f}")

    pt = exact.terminating_distribution(enum, fwd_log)
    p_star = exact.reward_distribution(enum)
    print(f"max |P_F_top - R/Z*| = {np.abs(pt - p_star).max():.3e}")

    # A uniform policy is far from the target; the metrics quantify how far.
    uniform = np.where(enum.action_masks(), 0.0, -np.inf)
    uniform -= np.log(np.exp(uniform).sum(axis=1, keepdims=True))
    pt_uniform = exact.terminating_distribution(enum, uniform)
    print("uniform policy: "
          f"D_TV = {exact.total_variation(pt_uniform, p_star):.4f}, "
          f"D_JSD = {exact.jensen_shannon(pt_uniform, p_star):.4f}, "
          f"Acc = {exact.reward_accuracy(pt_uniform, enum):.4f}")

    modes = exact.mode_states(enum)
    print(f"mode cells (top reward quantile): {sorted(map(tuple, modes.tolist()))}")

    # The accumulated state distribution has three equivalent computations
    # on graded DAGs; the grid is not graded, so show it on the layered
    # visit probabilities instead.
    edge_p = np.exp(fwd_log[enum.edge_src, enum.edge_slot])
    visits = exact.visit_probabilities(enum, edge_p)
    by_layer = [float(visits[layer].sum()) for layer in enum.layers]
    print("visit mass by layer (flow policy):",
          " ".join(f"{v:.3f}" for v in by_layer))


if __name__ == "__main__":
    main()
