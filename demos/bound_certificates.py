"""Numerical certificates for the two performance bounds.

The first bound caps the divergence-to-guide objective by the sum of the
forward and guided-backward objectives plus a mismatch term; the second
caps the per-layer change of the forward objective after a policy update
by an advantage expectation plus trust-region terms.  Both are verified
here on batches of random graded DAGs with random tabular policies, and
at their tightness points (guide equal to the backward policy; update
equal to the current policy).
"""

import numpy as np

from gflow import TableGuide, check_theorem_bounds
from gflow.envs import random_graded_dag
from gflow.autodiff import log_softmax_masked


def random_instance(seed):
    rng = np.random.default_rng(seed)
    env = random_graded_dag(rng)
    enum = env.enumeration()
    fwd = log_softmax_masked(
        None, rng.normal(0, 1, (enum.n, env.n_action_slots)), enum.action_masks()).data
    masks = enum.parent_masks()
    bwd = np.full((enum.n, env.n_backward_slots), -np.inf)
    rows = [i for i in range(enum.n) if masks[i].any()]
    bwd[rows] = log_softmax_masked(
        None, rng.normal(0, 1, (len(rows), env.n_backward_slots)), masks[rows]).data
    alt = log_softmax_masked(
        None, rng.normal(0, 1, (enum.n, env.n_action_slots)), enum.action_masks()).data
    guide = TableGuide.random(env, rng)
    log_z = float(np.log(enum.partition()) + rng.normal(0, 0.5))
    return env, fwd, bwd, guide, log_z, alt


def main():
    slack1, slack2, holds = [], [], 0
    for seed in range(40):
        env, fwd, bwd, guide, log_z, alt = random_instance(seed)
        rep = check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
        t1, t2 = rep["theorem1"], rep["theorem2"]
        holds += t1["holds"] and t2["holds"]
        slack1.append(t1["rhs"] - t1["lhs"])
        slack2.append(t2["rhs"] - t2["lhs"])
    print(f"both bounds hold on {holds}/40 random instances")
    print(f"divergence bound slack:  min {min(slack1):.3g}  "
          f"median {np.median(slack1):.3g}  max {max(slack1):.3g}")
    print(f"improvement bound slack: min {min(slack2):.3g}  "
          f"median {np.median(slack2):.3g}  max {max(slack2):.3g}")
    tight = sum(1 for s in slack1 if s == 0.0)
    if tight:
        # single-parent DAGs force the backward policy, so any guide
        # matches it and the first bound holds with equality
        print(f"({tight} instances have a forced backward policy; "
              f"both bounds are tight there)")

    # Tightness: with the guide equal to the backward policy the mismatch
    # term vanishes and the first bound collapses to an identity; an
    # unchanged policy collapses the second the same way.
    env, fwd, bwd, _, log_z, _ = random_instance(99)
    rep = check_theorem_bounds(env, fwd, bwd, log_z, bwd, forward_alt=fwd)
    t1, t2 = rep["theorem1"], rep["theorem2"]
    print(f"\nguide == backward:  lhs {t1['lhs']:.6f}  rhs {t1['rhs']:.6f}  "
          f"(mismatch term {t1['r_max']:.1e})")
    print(f"update == current:  lhs {t2['lhs']:.2e}  rhs {t2['rhs']:.2e}  "
          f"(budget spent {t2['zeta']:.1e})")


if __name__ == "__main__":
    main()
