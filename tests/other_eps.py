"""Run package code at a coincidence tolerance other than geometry.EPS.

The package has one fixed tolerance, and nothing in it sets another.  Some
exactness claims hold for every eps >= 0 (the eps-neighbour index behind
normalize and the separation monitor, the resampling of random_point_set),
so their tests check them at zero, at a subnormal and at coarse values too.
``at_eps`` rebinds EPS in every loaded gathersim module for the duration of
a with-block.
"""

import contextlib
import sys
from typing import Iterator
from unittest import mock


@contextlib.contextmanager
def at_eps(eps: float) -> Iterator[None]:
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "gathersim" and hasattr(module, "EPS"):
                stack.enter_context(mock.patch.object(module, "EPS", eps))
        yield
