"""The ``sim_campaign`` workload, run in a fresh process.

One campaign is the paper's Figure 9 study cross-checked by simulation:
``run_algorithms`` (Global, MC, SA, SSS at full budgets) on the eight
configurations C1..C8, then all 32 mappings through one
``simulate_batch`` call at batch 32.  Campaign 0 always uses the paper's
own instances and fixed simulation seeds; its statistics are digested
and checked against the recorded digest, and the quality figures
(SSS gain over Global, analytic-model error) come from it.  Later
campaigns use instances drawn from the workload seed.  Campaigns repeat
until the time budget is spent.  The reference loop of ``pace.py`` is
timed right after set-up, before each campaign and after the last,
outside the timed regions.

usage: python perfbench/campaign.py --seed N --seconds S --out PATH
       [--trace] [--setup-only] [--windows WARMUP MEASURE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def _digest(replays) -> str:
    """sha256 over every simulated statistic: packet counts, flit hops,
    and per-app APLs as hex floats, in replay order."""
    h = hashlib.sha256()
    for r in replays:
        by_app = r.stats.apl_by_app()
        h.update(
            (
                f"{r.packets_offered},{r.packets_delivered},"
                f"{r.counts.flit_router_traversals},{r.counts.flit_link_traversals};"
                + ",".join(f"{a}:{float(v).hex()}" for a, v in sorted(by_app.items()))
                + "\n"
            ).encode()
        )
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--windows", type=int, nargs=2, default=(200, 2000))
    args = parser.parse_args()

    import repro.experiments as experiments
    import repro.noc as noc
    from repro.core import permkernels
    from repro.experiments.base import ALGORITHM_ORDER, CONFIG_NAMES

    rec = None
    run_algorithms, simulate_batch = experiments.run_algorithms, noc.simulate_batch
    if args.trace:
        from spans import Recorder, install_campaign

        rec = Recorder()
        install_campaign(rec)
        run_algorithms = rec.wrap(run_algorithms, "experiments.run_algorithms")
        simulate_batch = rec.wrap(simulate_batch, "noc.simulate_batch")

    def instances(k: int):
        seed = None if k == 0 else args.seed * 1000 + k
        return [experiments.standard_instance(c, seed=seed) for c in CONFIG_NAMES]

    first = instances(0)
    permkernels.warmup()
    setup_done = time.perf_counter()
    from pace import take as take_pace

    # reference loop times: after set-up (that is, before campaign 0),
    # before each later campaign, and after the last
    paces = [take_pace()]
    out = {"setup_done": setup_done, "campaigns": [], "errors": [], "pace": paces}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(out, fh)
        return 0

    warmup, measure = args.windows
    stop_at = setup_done + args.seconds
    k = 0
    while k < 2 or time.perf_counter() < stop_at:
        if k:
            paces.append(take_pace())
        insts = first if k == 0 else instances(k)
        sim_seeds = [k * 100 + j for j in range(len(insts) * len(ALGORITHM_ORDER))]
        t0 = time.perf_counter()
        per_instance, results = [], []
        for name, inst in zip(CONFIG_NAMES, insts):
            t = time.perf_counter()
            results.append(run_algorithms(inst, seed_tag=name))
            per_instance.append(time.perf_counter() - t)
        pairs = [(inst, res[alg].mapping) for inst, res in zip(insts, results)
                 for alg in ALGORITHM_ORDER]
        t_sim = time.perf_counter()
        replays = simulate_batch(pairs, seeds=sim_seeds, warmup=warmup, measure=measure)
        t1 = time.perf_counter()
        campaign = {
            "start": t0, "end": t1, "wall": t1 - t0, "instance_s": per_instance,
            "sim_s": t1 - t_sim, "sim_cycles": (warmup + measure) * len(pairs),
        }
        for j, r in enumerate(replays):
            if r.packets_delivered <= 0 or r.packets_delivered != r.packets_offered:
                out["errors"].append(
                    f"campaign {k} replay {j}: delivered {r.packets_delivered} "
                    f"of {r.packets_offered} packets"
                )
        if k == 0:
            gains, errors = [], []
            for res in results:
                gains.append(1.0 - res["SSS"].max_apl / res["Global"].max_apl)
            for (inst, _), alg_res, r in zip(
                pairs, [res[a] for res in results for a in ALGORITHM_ORDER], replays
            ):
                analytic = alg_res.evaluation.apls
                for app, measured in r.stats.apl_by_app().items():
                    errors.append(abs(float(analytic[app]) - measured) / measured)
            campaign.update(
                digest=_digest(replays),
                sss_gain=sum(gains) / len(gains),
                model_error=sum(errors) / len(errors),
                delivered=sum(r.packets_delivered for r in replays),
                flit_hops=sum(r.counts.flit_link_traversals for r in replays),
            )
        out["campaigns"].append(campaign)
        k += 1
    paces.append(take_pace())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        lo = out["campaigns"][0]["start"]
        out["spans"] = [s for s in rec.spans if s[3] >= lo]
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
