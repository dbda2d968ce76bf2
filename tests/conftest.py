import json
from importlib import resources

import pytest

from quditcodes.codes import Code, code_from_json

SHIPPED = ("qutrit13", "c2_d5_n16", "c3_d7_n36", "c4_d7_n20_eta6")


def shipped_code(name: str) -> Code:
    entry = resources.files("quditcodes.data").joinpath(name + ".json")
    return code_from_json(json.loads(entry.read_text()))


@pytest.fixture(scope="session")
def corpus():
    return {name: shipped_code(name) for name in SHIPPED}


def reports_identical(a, b):
    """Field-for-field equality of two KL reports, exact values by repr."""
    if (a.passed, a.checked_elements, a.structural_zeros,
            a.arithmetic_zeros) != (b.passed, b.checked_elements,
                                    b.structural_zeros, b.arithmetic_zeros):
        return False
    if {k: repr(v) for k, v in a.constants.items()} != \
            {k: repr(v) for k, v in b.constants.items()}:
        return False
    return {(v.e, v.f, v.i, v.j): repr(v.value) for v in a.violations} == \
        {(v.e, v.f, v.i, v.j): repr(v.value) for v in b.violations}
