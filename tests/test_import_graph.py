"""Start-up imports, and the scipy.special tails that replaced scipy.stats.

``import repro`` pays for every module it loads, in every process:
``scipy.stats`` alone cost more than the rest of the package.  The stats
layer uses four distribution tails, which ``scipy.special`` computes with
the same kernels; these tests keep both facts true.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc, fdtrc, ndtr, stdtr

SRC = Path(__file__).resolve().parents[1] / "src"


def test_startup_loads_neither_scipy_stats_nor_optimize():
    # A fresh interpreter: this one has scipy.stats loaded by the test below.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli; "
         "print(*sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    )
    assert done.stdout.split() == []


ARGS = np.array([0.0, 1e-300, 1e-8, 0.01, 0.5, 1.0, 1.96, 3.0, 7.5, 20.0, 60.0,
                 250.0, 1e3, 1e5, np.inf])
DFS = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 7.0, 30.0, 100.0, 743.0, 1e3, 1e5])


def test_ndtr_equals_norm_sf():
    z = np.concatenate([-ARGS, ARGS, np.linspace(-40.0, 40.0, 4001)])
    np.testing.assert_array_equal(ndtr(-z), stats.norm.sf(z))


def test_stdtr_equals_t_sf():
    t = np.concatenate([-ARGS, ARGS])
    df = DFS[:, None]
    np.testing.assert_array_equal(stdtr(df, -t), stats.t.sf(t, df))


def test_chdtrc_equals_chi2_sf():
    # df = 0 is outside chi2's domain (scipy.stats gives NaN, chdtrc 0);
    # fit_ordinal only asks for p > 0 degrees of freedom.
    df = DFS[1:, None]
    np.testing.assert_array_equal(chdtrc(df, ARGS), stats.chi2.sf(ARGS, df))


def test_fdtrc_equals_f_sf():
    dfn, dfd = DFS[:, None, None], DFS[None, :, None]
    np.testing.assert_array_equal(fdtrc(dfn, dfd, ARGS), stats.f.sf(ARGS, dfn, dfd))
