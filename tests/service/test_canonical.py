"""Property tests of the service's problem identity (the ``canonicalize`` stage).

The cache is only sound if two requests share an entry exactly when a
direct solve cannot tell them apart: same mesh, params and rates in the
same order.  Names never reach the math, so they are left out; every
other difference, however small, is a different problem.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.app import canonicalize

# Rates on a coarse grid so perturbations are unambiguous; shapes stay
# tiny (the properties are label-level, not scale-level).
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


class TestExactIdentity:
    @given(apps=specs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_is_a_new_problem(self, apps, data):
        """Shuffled apps and threads share a fingerprint only if the rates read the same."""
        base = canonicalize(spec_of(apps))
        app_perm = data.draw(st.permutations(range(len(apps))))
        shuffled = []
        for i in app_perm:
            thread_perm = data.draw(st.permutations(range(len(apps[i]))))
            shuffled.append([apps[i][j] for j in thread_perm])
        relabeled = canonicalize(spec_of(shuffled))

        assert (relabeled == base) == (shuffled == apps)
        assert (relabeled.fingerprint == base.fingerprint) == (shuffled == apps)

    @given(apps=specs)
    @settings(max_examples=30, deadline=None)
    def test_names_are_ignored(self, apps):
        """Names never reach the math, so renamed apps are the same problem."""
        base = canonicalize(spec_of(apps))
        renamed = canonicalize(spec_of(apps, names=[f"y{i}" for i in range(len(apps))]))
        assert renamed == base and renamed.fingerprint == base.fingerprint

    @given(apps=specs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_rate_change_is_a_new_problem(self, apps, data):
        """A rate moved by any amount, even 1e-13, changes the fingerprint."""
        base = canonicalize(spec_of(apps))
        i = data.draw(st.integers(0, len(apps) - 1))
        j = data.draw(st.integers(0, len(apps[i]) - 1))
        delta = data.draw(st.sampled_from([1e-13, 1e-9, 3e-9, 1e-3, 0.5]))
        c, m = apps[i][j]
        perturbed = [list(pairs) for pairs in apps]
        perturbed[i][j] = (c + delta, m)
        assert canonicalize(spec_of(perturbed)).fingerprint != base.fingerprint


class TestValidation:
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
            {"mesh": 4, "params": {"td_q": float("nan")}, "apps": [{"cache_rates": [1], "mem_rates": [1]}]},
            {"mesh": 4.0, "apps": [{"cache_rates": [1], "mem_rates": [1]}]},
            {"mesh": {"rows": 4, "cols": False}, "apps": [{"cache_rates": [1], "mem_rates": [1]}]},
            {"mesh": 4, "params": {"td_s": True}, "apps": [{"cache_rates": [1], "mem_rates": [1]}]},
            {"mesh": 4, "apps": [{"cache_rates": ["1"], "mem_rates": [1]}]},
            {"mesh": 4, "apps": [{"cache_rates": [1], "mem_rates": [10**400]}]},
        ],
    )
    def test_malformed_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            canonicalize(spec)

    def test_fingerprint_matches_ledger_scheme(self):
        """Cache keys use the ``config_fingerprint`` format (16 hex digits)."""
        problem = canonicalize({"mesh": 4, "apps": [{"cache_rates": [1.0], "mem_rates": [0.5]}]})
        fp = problem.fingerprint
        assert len(fp) == 16 and int(fp, 16) >= 0
