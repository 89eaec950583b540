"""The public library surface: what ``aoinet`` exports and what it no longer does."""

import dataclasses
import inspect

import pytest

import aoinet as a


def test_every_public_name_resolves_once():
    assert len(set(a.__all__)) == len(a.__all__)
    for name in a.__all__:
        getattr(a, name)


@pytest.mark.parametrize(
    "name",
    [
        "AgeTable",
        "average_age_all",
        "Boundary",
        "boundary",
        "mgf_convergence_bound",
        "equal_age_fraction",
        "full_user_mask",
        "integral_age_sq",
        "thresholds",
        "merge_warning",
        "workers",  # the sampler's threads are the usable CPUs
    ],
)
def test_library_only_names_are_gone(name):
    assert name not in a.__all__
    assert not hasattr(a, name)
    owners = (a.exact, a.network, a.sampler, a.simulator, a.AugmentedNetwork)
    assert not any(hasattr(m, name) for m in owners)
    assert name not in {f.name for f in dataclasses.fields(a.SimResult)}
    for func in (a.validate_ssn, a.sample_ages, a.sampler._chunks):
        assert name not in inspect.signature(func).parameters


def test_sampler_keeps_only_what_callers_read():
    assert not hasattr(a.RngPolicy, "edge_exponentials")
    assert [f.name for f in dataclasses.fields(a.SampleBatch)] == ["ages", "n"]


@pytest.mark.parametrize(
    "entry",
    [a.average_age, a.chain_average_ages, a.mgf, a.cdf_grid, a.chernoff_bound],
    ids=lambda f: f.__name__,
)
def test_exact_entry_points_have_one_limit_setting(entry):
    # the exact-engine limit is AOI_MAX_EXACT_NODES alone
    assert "max_nodes" not in inspect.signature(entry).parameters
