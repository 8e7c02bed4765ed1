"""Quickstart: map four applications onto an 8x8 CMP with balanced latency.

Builds the paper's C1 workload, runs the exact Global baseline and the
proposed sort-select-swap (SSS) algorithm, and prints the mapping layouts
and per-application average packet latencies side by side.

Run:  python examples/quickstart.py
"""

from repro import (
    Mesh,
    MeshLatencyModel,
    OBMInstance,
    global_mapping,
    sort_select_swap,
)
from repro.cli import run_main
from repro.utils.text import format_table, grid_to_text
from repro.workloads import parsec_config


def main() -> None:
    # 1. The platform: 8x8 mesh, corner memory controllers, Table 2 timing.
    model = MeshLatencyModel(Mesh.square(8))

    # 2. The workload: four 16-thread applications calibrated to the
    #    paper's C1 statistics, numbered in ascending traffic order.
    workload = parsec_config("C1")
    print(workload.summary())
    print()

    # 3. The OBM problem instance and two mapping algorithms.
    instance = OBMInstance(model, workload)
    glob = global_mapping(instance)  # minimises total latency (exact)
    sss = sort_select_swap(instance)  # balances per-app latency (paper)

    # 4. Results: mapping layouts...
    print("Global mapping (application id per tile):")
    print(grid_to_text(glob.mapping.app_grid(instance.workload, model.mesh)))
    print()
    print("SSS mapping:")
    print(grid_to_text(sss.mapping.app_grid(instance.workload, model.mesh)))
    print()

    # ...and the per-application APLs.
    rows = []
    for i, app in enumerate(workload.applications):
        rows.append(
            [f"{i + 1}: {app.name}", glob.evaluation.apls[i], sss.evaluation.apls[i]]
        )
    rows.append(["max-APL", glob.max_apl, sss.max_apl])
    rows.append(["dev-APL", glob.dev_apl, sss.dev_apl])
    rows.append(["g-APL", glob.g_apl, sss.g_apl])
    print(format_table(["application", "Global", "SSS"], rows, float_fmt="{:.3f}"))
    print()
    improvement = (glob.max_apl - sss.max_apl) / glob.max_apl
    print(
        f"SSS reduces the worst application's APL by {improvement:.1%} "
        f"and runs in {sss.runtime_seconds * 1e3:.0f} ms."
    )


if __name__ == "__main__":
    run_main(main)
