"""Dynamic scenario: applications arrive and leave; the chip remaps online.

The paper argues SSS's O(N^3) runtime makes it usable whenever the
application mix changes (Section IV).  This example simulates a sequence
of epochs in which applications enter and exit a 64-core CMP; at each
change the system re-solves the OBM problem with SSS and we track the
latency balance over time, against a static "first-fit and never remap"
policy.

Run:  python examples/dynamic_remap.py
"""

import numpy as np

from repro import Mapping, Mesh, MeshLatencyModel, OBMInstance, sort_select_swap
from repro.cli import run_main
from repro.core.workload import Application, Workload
from repro.utils.rng import as_rng
from repro.utils.text import format_table
from repro.workloads import parsec_config

#: Pool of candidate applications (drawn from two paper configurations).
def build_pool():
    pool = []
    for cfg in ("C1", "C3"):
        for app in parsec_config(cfg).applications:
            pool.append(Application(f"{cfg}-{app.name}", app.cache_rates, app.mem_rates))
    return pool


def first_fit_mapping(instance: OBMInstance) -> Mapping:
    """Naive baseline: threads take tiles in index order, no optimisation."""
    return Mapping(np.arange(instance.n))


def main() -> None:
    model = MeshLatencyModel(Mesh.square(8))
    pool = build_pool()
    rng = as_rng(2014)

    # Epoch schedule: which pool entries run concurrently.
    schedule = []
    running = [0, 1, 2, 3]
    for _ in range(6):
        schedule.append(list(running))
        # one app leaves, one (possibly different) arrives
        running = list(running)
        running.pop(int(rng.integers(len(running))))
        candidates = [i for i in range(len(pool)) if i not in running]
        running.append(int(rng.choice(candidates)))

    rows = []
    for epoch, app_ids in enumerate(schedule):
        apps = tuple(pool[i] for i in app_ids)
        workload = Workload(apps, name=f"epoch{epoch}")
        instance = OBMInstance(model, workload)

        sss = sort_select_swap(instance)
        naive_eval = instance.evaluate(first_fit_mapping(instance))
        rows.append(
            [
                epoch,
                ", ".join(a.name for a in apps),
                naive_eval.max_apl,
                sss.max_apl,
                naive_eval.dev_apl,
                sss.dev_apl,
                sss.runtime_seconds * 1e3,
            ]
        )

    print(
        format_table(
            ["epoch", "running applications", "max-APL naive", "max-APL SSS",
             "dev naive", "dev SSS", "remap ms"],
            rows,
            title="online remapping across application churn",
        )
    )
    remap_ms = [r[-1] for r in rows]
    print(
        f"\nmean remap time {np.mean(remap_ms):.0f} ms — negligible at the "
        "seconds-to-minutes granularity of application arrivals."
    )


if __name__ == "__main__":
    run_main(main)
