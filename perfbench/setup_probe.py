"""Print the seconds a fresh process takes from before ``import carnot``

until every shipped spec is loaded and validated.  The command-line module
is imported too: its import cost is part of what a user of ``carnot`` pays.
"""

import time

t0 = time.perf_counter()

import carnot.cli  # noqa: E402,F401
from specs import load_specs  # noqa: E402

load_specs()
print(repr(time.perf_counter() - t0))
