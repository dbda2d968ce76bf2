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


# c2_d5_n16 with its orbit (6, 10, 0, 0, 0) listed again as (6, 0, 0, 0, 10).
DUPLICATE_ORBIT_MESSAGE = (
    "code lists one tail orbit twice: (6, 10, 0, 0, 0) and "
    "(6, 0, 0, 0, 10) share the representative (6, 10, 0, 0, 0)")


def duplicate_orbit_json() -> dict:
    data = json.loads(resources.files("quditcodes.data")
                      .joinpath("c2_d5_n16.json").read_text())
    data["orbits"].append({"representative": [6, 0, 0, 0, 10],
                           "amplitude": data["orbits"][1]["amplitude"]})
    return data


def meet(u, v) -> bool:
    """Whether some cyclic relabeling of v differs from u by the pattern
    {+2, -2}, the one a repeated flip S(j,k)**2 bridges."""
    return any(sorted(a - b for a, b in zip(u, v[s:] + v[:s]) if a != b)
               == [-2, 2] for s in range(len(u)))
