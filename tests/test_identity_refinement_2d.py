"""Gate C2's identity refinement on a 2D mesh.

The gap between the reconstructed and the shadow biomass must shrink
like dx^2 when both axes are refined, with the criterion of gate C2
(tests/test_acceptance.py), on C2's model and initial data over a 2 x 2
box.  Refining 32^2 to 45^2 cells halves dx^2 (45 ~ 32 sqrt(2)), and dt
with it.  Both runs conserve mass to gate C8's tolerance and never engage
the cutoff, so the gap measures the scheme's consistency alone.
"""

import math

from swarmpde import config as config_mod
from swarmpde.cli import CONSERVATION_TOL
from swarmpde.solver_core import run

from test_acceptance import _cfg


def test_identity_refinement_2d():
    gaps = {}
    for cells in (32, 45):
        cfg = _cfg(domain={"dim": 2, "extents": [2.0, 2.0], "cells": [cells, cells]},
                   time={"T": 0.25, "sample_dt": 0.05},
                   diagnostics={"tail_A": [], "store_u": False})
        setup, _ = config_mod.build_run_setup(cfg, check_hypotheses=False)
        record = run(setup).record
        assert record.conservation_max <= CONSERVATION_TOL
        assert record.theta_activations == 0
        gaps[cells] = float(record.series["identity_residual"][-1])
    factor = gaps[32] / gaps[45]
    order = math.log2(factor) / math.log2((45.0 / 32.0) ** 2)
    assert factor >= 1.8 and order >= 0.85, (gaps, factor, order)
