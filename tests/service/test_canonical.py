"""Property tests of the canonicalization layer (ISSUE satellite: hypothesis).

The cache is only sound if canonical identity means mathematical
identity: every relabeling of a problem must collapse to one
fingerprint, and every materially different problem must not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.canonical import (
    RATE_DECIMALS,
    canonicalize,
    quantize_rate,
)

QUANTUM = 10.0 ** (-RATE_DECIMALS)

# Rates on a coarse grid so quantization is exact and perturbations are
# unambiguous; shapes stay tiny (the properties are label-level, not
# scale-level).
rate = st.integers(min_value=0, max_value=2000).map(lambda k: k * 1e-3)
app = st.lists(st.tuples(rate, rate), min_size=1, max_size=5)


def spec_of(apps, mesh=6, names=None):
    return {
        "mesh": mesh,
        "apps": [
            {
                "name": (names[i] if names else f"a{i}"),
                "cache_rates": [p[0] for p in pairs],
                "mem_rates": [p[1] for p in pairs],
            }
            for i, pairs in enumerate(apps)
        ],
    }


specs = st.lists(app, min_size=1, max_size=4).filter(
    lambda apps: sum(len(a) for a in apps) <= 36
)


class TestRelabelInvariance:
    @given(apps=specs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_app_and_thread_relabeling_is_identity(self, apps, data):
        """Shuffled apps, shuffled threads, fresh names: same fingerprint."""
        base = canonicalize(spec_of(apps))

        app_perm = data.draw(st.permutations(range(len(apps))))
        shuffled = []
        for i in app_perm:
            thread_perm = data.draw(st.permutations(range(len(apps[i]))))
            shuffled.append([apps[i][j] for j in thread_perm])
        relabeled = canonicalize(spec_of(shuffled, names=[f"x{i}" for i in range(len(apps))]))

        assert relabeled.problem == base.problem
        assert relabeled.problem.fingerprint == base.problem.fingerprint

    @given(apps=specs)
    @settings(max_examples=60, deadline=None)
    def test_subquantum_noise_shares_the_entry(self, apps):
        """Noise far below the quantum never splits the cache entry."""
        noisy = [
            [(c + 1e-13, m - (1e-13 if m > 0 else 0)) for c, m in pairs]
            for pairs in apps
        ]
        assert (
            canonicalize(spec_of(noisy)).problem.fingerprint
            == canonicalize(spec_of(apps)).problem.fingerprint
        )

    @given(apps=specs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbation_at_or_above_quantum_never_collides(self, apps, data):
        """A rate moved by >= the quantum always changes the fingerprint."""
        base = canonicalize(spec_of(apps))
        i = data.draw(st.integers(0, len(apps) - 1))
        j = data.draw(st.integers(0, len(apps[i]) - 1))
        delta = data.draw(st.sampled_from([QUANTUM, 3 * QUANTUM, 1e-3, 0.5]))
        c, m = apps[i][j]
        perturbed = [list(pairs) for pairs in apps]
        perturbed[i][j] = (c + delta, m)
        assert (
            canonicalize(spec_of(perturbed)).problem.fingerprint
            != base.problem.fingerprint
        )


class TestRoundTrip:
    @given(apps=specs)
    @settings(max_examples=60, deadline=None)
    def test_serialize_canonicalize_is_idempotent(self, apps):
        """canonicalize(as_spec(canonicalize(x))) is the identity."""
        once = canonicalize(spec_of(apps))
        twice = canonicalize(once.problem.as_spec())
        assert twice.problem == once.problem
        # The canonical spec is already in canonical order.
        assert twice.app_order == tuple(range(once.n_apps))
        assert all(
            order == tuple(range(len(order))) for order in twice.thread_orders
        )

    @given(apps=specs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_translation_round_trips(self, apps, data):
        """to-canonical then from-canonical returns the original labels."""
        canon = canonicalize(spec_of(apps))
        n = canon.problem.n_threads
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        assert canon.perm_from_canonical(canon.perm_to_canonical(perm)) == [
            int(t) for t in perm
        ]
        values = list(range(canon.n_apps))
        assert canon.by_app_from_canonical(canon.by_app_to_canonical(values)) == values


class TestValidation:
    def test_quantize_rate_collapses_negative_zero(self):
        assert str(quantize_rate(-0.0)) == "0.0"

    @pytest.mark.parametrize(
        "spec",
        [
            {"mesh": 4, "apps": []},
            {"mesh": 0, "apps": [{"cache_rates": [1], "mem_rates": [1]}]},
            {"mesh": 4, "apps": [{"cache_rates": [1, 2], "mem_rates": [1]}]},
            {"mesh": 4, "apps": [{"cache_rates": [-1.0], "mem_rates": [0.0]}]},
            {"mesh": 4, "apps": [{"cache_rates": [float("nan")], "mem_rates": [0.0]}]},
            {"mesh": 2, "apps": [{"cache_rates": [1] * 5, "mem_rates": [1] * 5}]},
            {"mesh": 4, "params": {"bogus": 1}, "apps": [{"cache_rates": [1], "mem_rates": [1]}]},
        ],
    )
    def test_malformed_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            canonicalize(spec)

    def test_fingerprint_matches_ledger_scheme(self):
        """Cache keys use the ``config_fingerprint`` format (16 hex digits)."""
        canon = canonicalize({"mesh": 4, "apps": [{"cache_rates": [1.0], "mem_rates": [0.5]}]})
        fp = canon.problem.fingerprint
        assert len(fp) == 16 and int(fp, 16) >= 0
