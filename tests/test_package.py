"""The package namespace: every module's public names, re-exported as is."""

import pytest

import dualquant
from dualquant import distributions, errors, quantiles, transforms, verify


@pytest.mark.parametrize("module", [distributions, errors, quantiles, transforms, verify],
                         ids=lambda m: m.__name__)
def test_every_public_name_is_exported_from_the_package(module):
    missing = [name for name in module.__all__
               if getattr(dualquant, name, None) is not getattr(module, name)]
    assert not missing
