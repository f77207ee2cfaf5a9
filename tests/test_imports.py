"""The heavy scipy submodules load only on the paths that need them.

``scipy.linalg`` comes in with a synthetic run, whose matrix is drawn
through its LAPACK QR, with the first dense operator of order
``SYMV_MIN_N`` or more, whose matvec is its BLAS ``dsymv``, and with the
dominant-pair reference; ``scipy.sparse.linalg`` (ARPACK) only with that
reference for a matrix that is not tridiagonal. The trace
writer forks its children with ``os.fork`` and loads no process pool.

A fresh interpreter per case, since the test session itself imports them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("scipy.io", "scipy.sparse.linalg", "scipy.linalg")


def _loaded_after(body: str, tmp_path, watched=WATCHED) -> set[str]:
    """The ``watched`` modules loaded after running ``body`` in a new interpreter."""
    script = (
        "import json, sys\n"
        "from splitmerge import ExperimentConfig, run_experiment\n"
        f"{body}\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_matrix_market_run_under_dense_limit_loads_only_scipy_io(tmp_path):
    # no zero entry, so the coordinate file loads as a DenseOperator below SYMV_MIN_N
    body = (
        "import numpy as np\n"
        "from splitmerge import DenseOperator, save_matrix_market\n"
        "a = np.full((12, 12), 0.01) + np.diag(np.linspace(1.0, 0.2, 12))\n"
        "save_matrix_market(DenseOperator(a), 'm.mtx')\n"
        "run_experiment(ExperimentConfig(source='matrix_market', matrix_path='m.mtx',\n"
        "                                trials=1, out_dir='out', dense_limit=64))"
    )
    assert _loaded_after(body, tmp_path) == {"scipy.io"}


def test_tridiagonal_matrix_market_run_above_dense_limit_loads_no_arpack(tmp_path):
    body = (
        "import numpy as np, scipy.sparse as sp\n"
        "from splitmerge import CsrOperator, save_matrix_market\n"
        "m = sp.diags([np.full(39, 0.1), np.linspace(1.0, 2.0, 40), np.full(39, 0.1)], [-1, 0, 1])\n"
        "save_matrix_market(CsrOperator(m), 'm.mtx')\n"
        "run_experiment(ExperimentConfig(source='matrix_market', matrix_path='m.mtx',\n"
        "                                trials=1, out_dir='out', dense_limit=16))"
    )
    assert _loaded_after(body, tmp_path) == {"scipy.io", "scipy.linalg"}


@pytest.mark.parametrize("n", ["16", "SYMV_MIN_N"])
def test_synthetic_run_loads_only_scipy_linalg(tmp_path, n):
    body = (
        "from splitmerge.linop import SYMV_MIN_N\n"
        f"run_experiment(ExperimentConfig(n={n}, gap=0.2, trials=1, out_dir='out'))"
    )
    assert _loaded_after(body, tmp_path) == {"scipy.linalg"}


def test_forked_trace_writer_loads_no_process_pool(tmp_path):
    body = (
        "import os\n"
        "from splitmerge import worker\n"
        "from splitmerge.bench import TRACE_BLOCK\n"
        "worker.cpus = lambda: 2\n"
        "real_fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or real_fork()\n"
        "run_experiment(ExperimentConfig(n=24, gap=1e-3, trials=3, stop_mode='residual',\n"
        "    residual_tol=1e-300, max_iter=TRACE_BLOCK // 2 + 50, out_dir='out'))\n"
        "assert len(forks) == 2, forks    # trials 0 and 1 were written by children"
    )
    # scipy's array API layer imports numpy.testing, which loads concurrent.futures' base alone
    pool = ("multiprocessing", "concurrent.futures.process")
    assert _loaded_after(body, tmp_path, pool) == set()


def test_all_lists_exactly_the_imported_public_names():
    """A name deleted from the API cannot linger in ``__all__`` or in the imports."""
    import ast

    import splitmerge

    tree = ast.parse((ROOT / "src" / "splitmerge" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [name for name in imported if not name.startswith("_")]
    assert sorted(splitmerge.__all__) == sorted(public)
