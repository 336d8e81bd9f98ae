"""The package's public names, which `schromag/__init__.py` resolves on first use."""

import sys
import types

import pytest

import schromag

SUBMODULES = ["baselines", "blockenc", "complexity", "errors", "linalg", "mag", "pde",
              "presets", "schrod"]
PUBLIC = sorted([
    *SUBMODULES,
    "auxiliary_ratio_trace",
    "BlockEncoding", "StatePrepPair", "build_state_prep_pair", "compose_product",
    "compose_sum", "compose_tensor", "dilate", "verify",
    "ComplexityReport", "SystemSummary", "chi", "gates", "method_complexity", "queries",
    "repetitions",
    "LinearSystem", "as_cmatrix", "as_cvector", "block_expm_apply", "direct_solve",
    "FlowSystem", "IterationTrace", "MagParams", "horizon", "mag_iterate",
    "relative_trace", "spectral_radius_check",
    "PdeProblem", "make_problem", "pde_preset", "PGrid", "pipeline",
])


def test_all_is_pinned():
    assert len(PUBLIC) == 42
    assert schromag.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_resolves(name):
    value = getattr(schromag, name)
    if name in SUBMODULES:
        assert isinstance(value, types.ModuleType)
        assert value.__name__ == f"schromag.{name}"
    else:
        # the object its defining submodule holds under the same name
        assert value.__module__.startswith("schromag.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(schromag))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from schromag import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(schromag, name) for name in PUBLIC}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        schromag.no_such_name  # noqa: B018
    assert not hasattr(schromag, "__no_such_dunder__")
