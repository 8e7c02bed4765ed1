"""Lower bounds on the optimal max-APL of an OBM instance.

The OBM problem is NP-complete, so heuristic solutions (SSS, SA, MC) come
without quality certificates.  Two cheap, valid lower bounds close that
gap:

* **Mean bound** (``g_apl``): for any mapping, the maximum per-application
  APL is at least the volume-weighted mean of the APLs, which equals the
  global APL; the g-APL is itself minimised exactly by the Hungarian
  method (the *Global* baseline).  Hence ``opt(max-APL) >= min g-APL``.
* **Per-application bound** (``per_app``): application ``i``'s APL cannot
  beat what it achieves when handed the *globally best* tiles for it with
  an optimal (SAM) placement, ignoring all other applications.  The
  maximum of these per-application optima bounds the max-APL from below.

The combined bound is the max of the two.  On the paper's configurations
SSS lands within a few percent of it (see ``bench_bounds.py``), turning
"SSS is near-optimal" from a claim into a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baselines import global_mapping
from repro.core.problem import OBMInstance
from repro.core.sam import solve_sam

__all__ = ["OBMLowerBound", "max_apl_lower_bound"]


@dataclass(frozen=True)
class OBMLowerBound:
    """A certified lower bound on the optimal max-APL."""

    mean_bound: float  #: optimal g-APL (volume-weighted mean <= max)
    per_app_bound: float  #: max over apps of their isolated SAM optimum
    per_app_optima: np.ndarray  #: each application's isolated optimum

    @property
    def value(self) -> float:
        """The tightest of the available bounds."""
        return max(self.mean_bound, self.per_app_bound)

    def gap(self, achieved_max_apl: float) -> float:
        """Relative optimality gap of a heuristic solution (>= 0)."""
        if self.value <= 0:
            return 0.0
        return achieved_max_apl / self.value - 1.0

    def as_dict(self) -> dict:
        """The certified-bound document (``repro bound --json``, serve's bounds)."""
        return {
            "value": self.value,
            "mean_bound": self.mean_bound,
            "per_app_bound": self.per_app_bound,
        }


def _best_tiles_for_app(
    instance: OBMInstance, app_index: int
) -> np.ndarray:
    """The unconstrained best tile set for one application.

    Because a thread's cost is ``c_j*TC(k) + m_j*TM(k)``, handing the
    application the tiles minimising its own SAM optimum and placing
    optimally can only *under*-estimate its APL in any feasible mapping
    (where it competes with other applications for tiles).  The minimum is
    found exactly by solving the rectangular assignment of the app's
    threads against *all* tiles.
    """
    wl = instance.workload
    sl = wl.thread_slice(app_index)
    c = wl.cache_rates[sl]
    m = wl.mem_rates[sl]
    # Rectangular assignment: n_threads rows vs all N tile columns.
    from repro.core.hungarian import solve_assignment

    cost = c[:, None] * instance.tc[None, :] + m[:, None] * instance.tm[None, :]
    result = solve_assignment(cost)
    return result.col_of_row


def max_apl_lower_bound(instance: OBMInstance) -> OBMLowerBound:
    """Compute both lower bounds for ``instance``."""
    glob = global_mapping(instance)
    mean_bound = glob.g_apl

    wl = instance.workload
    optima = np.zeros(wl.n_apps)
    for i in range(wl.n_apps):
        if wl.app_volumes[i] <= 0:
            continue
        tiles = _best_tiles_for_app(instance, i)
        sl = wl.thread_slice(i)
        res = solve_sam(
            wl.cache_rates[sl], wl.mem_rates[sl], tiles, instance.tc, instance.tm
        )
        optima[i] = res.apl
    optima.setflags(write=False)
    return OBMLowerBound(
        mean_bound=mean_bound,
        per_app_bound=float(optima.max()),
        per_app_optima=optima,
    )
