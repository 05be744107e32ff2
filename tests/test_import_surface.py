"""What importing and running the package costs: scipy only where it fits.

scipy is imported by the distribution fits alone
(:mod:`repro.analysis.distributions`), on first use.  Each check runs in a
fresh interpreter, because this test process has long since loaded it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_child(code: str) -> subprocess.CompletedProcess:
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=str(REPO),
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child


def test_package_import_leaves_scipy_unloaded():
    child = run_child(
        """
        import sys
        import repro, repro.api, repro.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    assert child.stdout.strip() == "[]"


def test_study_leaves_scipy_unloaded():
    child = run_child(
        """
        import contextlib, io, sys
        import repro.cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = repro.cli.main(["study", "--scale", "2e-6", "--seed", "3"])
        assert code == 0, code
        assert "Table" in out.getvalue()
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    assert child.stdout.strip().splitlines()[-1] == "[]"


def test_fits_load_scipy_on_first_use_with_unchanged_results():
    run_child(
        """
        import sys
        import numpy as np
        from repro.analysis import compare_models, fit_all
        assert "scipy" not in sys.modules

        sample = np.random.default_rng(5).lognormal(1.0, 0.8, size=400)
        fits = fit_all(sample)
        assert "scipy.stats" in sys.modules
        comparison = compare_models(sample)

        # The same fits computed directly with scipy.
        from scipy import stats
        scale = float(sample.mean())
        expon_ks = stats.kstest(sample, "expon", args=(0, scale))
        logs = np.log(sample)
        mu, sigma = float(logs.mean()), float(logs.std(ddof=0))
        lognorm_ks = stats.kstest(sample, "lognorm", args=(sigma, 0, np.exp(mu)))
        shape, _, wscale = stats.weibull_min.fit(sample, floc=0)
        weibull_ks = stats.kstest(sample, "weibull_min", args=(shape, 0, wscale))

        assert fits["exponential"].params == (scale,)
        assert fits["exponential"].ks_statistic == float(expon_ks.statistic)
        assert fits["exponential"].log_likelihood == float(
            np.sum(stats.expon.logpdf(sample, scale=scale))
        )
        assert fits["lognormal"].params == (mu, sigma)
        assert fits["lognormal"].ks_pvalue == float(lognorm_ks.pvalue)
        assert fits["weibull"].params == (float(shape), float(wscale))
        assert fits["weibull"].ks_statistic == float(weibull_ks.statistic)
        assert comparison.fits == fits
        assert comparison.best_name == "lognormal"
        """
    )
