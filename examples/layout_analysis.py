"""Layout forensics: why does SSS balance where Global cannot?

Combines the mapping-analysis diagnostics with NoC telemetry to show the
mechanics behind the paper's headline numbers: Global gives the heavy
application the premium central tiles (contiguous blob, low mean TC) and
exiles light applications to the perimeter; SSS deals every application
the same tile-quality mix (interleaved, near-identical mean TC).  The
cycle-level network then confirms the traffic consequences: link
utilisation concentrates under Global and spreads under SSS.

Run:  python examples/layout_analysis.py
"""

from repro import Mesh, MeshLatencyModel, OBMInstance, global_mapping, sort_select_swap
from repro.analysis import compare_results, corner_occupants, placement_stats
from repro.noc import MappedWorkloadTraffic, NetworkTelemetry, NoCSimulator
from repro.utils.text import heatmap_to_text
from repro.workloads import parsec_config


def traffic_heatmap(instance, mapping, label):
    traffic = MappedWorkloadTraffic(instance, mapping, cycles_per_unit=1000, seed=3)
    # Telemetry reads the fast path's Network.
    sim = NoCSimulator(instance.mesh, traffic, engine="fastpath")
    telemetry = NetworkTelemetry(sim.network)
    sim.run(warmup=500, measure=6_000)
    snap = telemetry.snapshot()
    print(f"\nrouter traffic heat map under {label}:")
    print(heatmap_to_text(snap.router_grid(instance.mesh).astype(float)))
    hottest = snap.hottest_links(3)
    print("hottest links:", [
        (f"tile {tile} {port.name}", round(util, 3)) for (tile, port), util in hottest
    ])
    return snap


def main() -> None:
    instance = OBMInstance(MeshLatencyModel(Mesh.square(8)), parsec_config("C1"))
    results = {
        "Global": global_mapping(instance),
        "SSS": sort_select_swap(instance),
    }
    print(compare_results(instance, results))

    for label, result in results.items():
        stats = placement_stats(instance, result.mapping)
        print(f"\n{label} placement quality (mean TC per app):",
              {s.name: round(s.mean_tc, 2) for s in stats})
        print(f"{label} corner occupants (app ids):",
              [a + 1 for a in corner_occupants(instance, result.mapping)])

    for label, result in results.items():
        traffic_heatmap(instance, result.mapping, label)


if __name__ == "__main__":
    main()
