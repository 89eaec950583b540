"""The public library surface: what ``aoinet`` exports and what it no longer does."""

import dataclasses
import inspect
from pathlib import Path

import pytest

import aoinet as a
from conftest import net_json

README = Path(__file__).resolve().parents[1] / "README.md"


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
        "Functional",  # estimate takes any callable of the ages
        "MgfQuery",  # mgf and chernoff_bound take the subset and s or d
        "TailQuery",
        "subset_time_average",  # a target run's one column is the subset's age
        "end_time",  # window_start and window_length bound the kept window
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
    assert [f.name for f in dataclasses.fields(a.SampleBatch)] == ["ages"]


@pytest.mark.parametrize(
    "entry",
    [a.average_age, a.chain_average_ages, a.mgf, a.cdf_grid, a.chernoff_bound],
    ids=lambda f: f.__name__,
)
def test_exact_entry_points_have_one_limit_setting(entry):
    # the exact-engine limit is AOI_MAX_EXACT_NODES alone
    assert "max_nodes" not in inspect.signature(entry).parameters


def test_readme_library_block_runs(monkeypatch, tmp_path):
    # the README's Library block runs as written, so a renamed or deleted
    # public name fails here, not only in the docs
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("\n```", 1)[0]
    edges = [("s", "v", 1), ("v", "d", 1), ("s", "d", 1)]
    (tmp_path / "net.json").write_text(net_json(1.0, "s", edges))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
