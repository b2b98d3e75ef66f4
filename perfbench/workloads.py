"""The benchmark's workloads: why each exists and the parameters it runs with.

Plain data, importable without numpy or hgdiff. Each workload has a `full`
size, the only one ever reported, and a `smoke` size that drives the same
code path on toy inputs for the benchmark's own tests.

The model is the desk-scale experiment configuration of the acceptance suite
(three propagation layers, 32 dimensions, 100 diffusion steps with noise
scale 1e-4 and per-row steps, lam 1.0, l2 1e-3, lr 1e-3, batch 1024, k 20).

Sizes keep one job short (8-10 s at desk scale, 9-15 s at mid scale on
a 2-core Xeon at 2.1 GHz), so a run of 40 s repeats its job two to four
times and each stage is sampled across the whole run rather than at one
moment: on a machine shared with other tenants, a job's speed varies by
10-20% from one to the next. The mid graph (8k x 4k, ~40k edges per
relation) is smaller than a 20k x 10k one for that reason; its generator
still draws a dense users x items matrix, 0.6 GB at peak. Mid-scale trainings run 4 epochs: the
first pays for the lazy transpose, so the median is a steady epoch. Smoke
sizes are the smallest found on which every training's loss still falls from
first to last epoch, which the output checks require.
"""

MODEL = {
    "layers": 3, "dim": 32, "steps": 100, "noise_scale": 1e-4, "per_row_t": True,
    "lam": 1.0, "l2": 1e-3, "lr": 1e-3, "batch_size": 1024, "k": 20,
}

MID_GRAPH = {"users": 8000, "items": 4000, "aux": 2, "density": 1.25e-3, "fidelity": 0.9}
DESK_GRAPH = {"users": 200, "items": 100, "aux": 2, "density": 0.05, "fidelity": 0.9}
TOY_GRAPH = {"users": 300, "items": 150, "aux": 2, "density": 0.03, "fidelity": 0.9}

WORKLOADS = {
    "mid-link": {
        "why": ("One big link-prediction training on 8k x 4k in-memory synthetic "
                "data: array work dominates (spmm, generator memory, eval scoring)."),
        "full": {"graph": MID_GRAPH, "epochs": 4},
        "smoke": {"graph": TOY_GRAPH, "epochs": 10},
    },
    "desk-sweep": {
        "why": ("Ablation over 6 variants plus noise robustness at desk scale, 13 short "
                "trainings per job: fixed per-run costs dominate, not nnz."),
        "full": {"graph": DESK_GRAPH, "epochs": 30,
                 "ratios": [0.0, 0.1, 0.3, 0.5], "reloads": 5},
        "smoke": {"graph": DESK_GRAPH, "epochs": 30, "ratios": [0.0, 0.5],
                  "reloads": 2},
    },
    "mid-node-files": {
        "why": ("Node classification on the mid graph loaded from edge/schema/label "
                "files, then save and reload through hgdiff eval: loaders and persistence."),
        "full": {"graph": MID_GRAPH, "epochs": 4},
        "smoke": {"graph": TOY_GRAPH, "epochs": 10},
    },
}


def params(workload, smoke=False):
    return WORKLOADS[workload]["smoke" if smoke else "full"]
