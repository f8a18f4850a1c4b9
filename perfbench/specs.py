"""Load and validate every spec that ships inside the carnot package."""

from __future__ import annotations

import json
from importlib import resources

GROUP_SPECS = ("h1", "h2", "quaternionic")
PSI_SPECS = ("psi_cp", "psi_gaussian", "psi_none", "psi_stable")


def load_specs():
    """Return ``(groups, psis)`` keyed by spec name.

    Group construction validates the structure matrices; a trivial exponent
    maps to ``None``, as the command line does.
    """
    from carnot.groups import CarnotGroup
    from carnot.levy import LevyExponent

    root = resources.files("carnot.specs")

    def read(name):
        return json.loads(root.joinpath(f"{name}.json").read_text())

    groups = {name: CarnotGroup.from_dict(read(name)) for name in GROUP_SPECS}
    psis = {}
    for name in PSI_SPECS:
        psi = LevyExponent.from_dict(read(name))
        psis[name] = None if psi.is_trivial else psi
    return groups, psis
