"""Public-API surface tests: every exported name must resolve.

Guards against the classic packaging bug where ``__all__`` lists a name
that was renamed or dropped — import-time works but star-imports and
documentation links break.
"""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.rf",
    "repro.sim",
    "repro.protocol",
    "repro.world",
    "repro.world.scenarios",
    "repro.reader",
    "repro.core",
    "repro.analysis",
    "repro.obs",
    "repro.faults",
    "repro.validate",
    "repro.lint",
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{package_name} has no __all__")
    for name in exported:
        assert hasattr(module, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_headline_api_one_liner():
    """The README's core flow must work as advertised."""
    from repro import (
        PaperSetup,
        PortalPassSimulator,
        combined_reliability,
        single_antenna_portal,
    )

    setup = PaperSetup()
    simulator = PortalPassSimulator(
        portal=single_antenna_portal(), env=setup.env, params=setup.params
    )
    assert simulator.portal.antenna_count == 1
    assert combined_reliability([0.63, 0.63]) > 0.63
