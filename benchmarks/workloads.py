"""Workload make-up and mode groups, free of numpy so the entry point can
fix BLAS threads before anything loads it.

Every workload streams the stock config's scenario (five domains at
severity 5, the domain set built from the config seed) with the stream
seed taken from `--seed`, and changes only the fields below.
"""

WORKLOADS = {
    # The paper's stock setting: ~18 groups per slot, grouping and the
    # per-group loop carry much of the time.
    "mixed_b64": {"kind": "cross_mix", "batch_size": 64, "num_batches": 200, "paper_order": True},
    # Single-sample online use: grouping short-circuits to one group, so
    # per-call fixed costs dominate; a grouping change should show nothing.
    "online_b1": {"kind": "cross_mix", "batch_size": 1, "num_batches": 2000, "paper_order": False},
    # Large single-domain batches: the B x B similarity, the component walk
    # and the per-group loop (~60 groups per slot) do the most work per sample.
    "static_b256": {"kind": "static", "batch_size": 256, "num_batches": 50, "paper_order": False},
}

MODES = ("sbn", "tbn", "alpha_bn", "find", "find_star")
FIND_MODES = ("find", "find_star")
BN_MODES = ("sbn", "tbn", "alpha_bn")
