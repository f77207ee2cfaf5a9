"""The heavy scipy submodules load only on the paths that need them.

``scipy.linalg`` comes in with the first dense operator of order
``SYMV_MIN_N`` or more, whose matvec is its BLAS ``dsymv``. The trace
writer's process pool comes in with the first trial that has a later one.

A fresh interpreter per case, since the test session itself imports them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_synthetic_run_loads_no_scipy_io_or_linalg(tmp_path):
    body = "run_experiment(ExperimentConfig(n=16, gap=0.2, trials=1, out_dir='out'))"
    assert _loaded_after(body, tmp_path) == set()


def test_matrix_market_run_under_dense_limit_loads_only_scipy_io(tmp_path):
    body = (
        "from splitmerge import SyntheticSpec, generate, save_matrix_market\n"
        "save_matrix_market(generate(SyntheticSpec(n=12, gap=0.2, seed=1))[0], 'm.mtx')\n"
        "run_experiment(ExperimentConfig(source='matrix_market', matrix_path='m.mtx',\n"
        "                                trials=1, out_dir='out', dense_limit=64))"
    )
    assert _loaded_after(body, tmp_path) == {"scipy.io"}


def test_synthetic_run_from_symv_threshold_loads_only_scipy_linalg(tmp_path):
    body = (
        "from splitmerge.linop import SYMV_MIN_N\n"
        "run_experiment(ExperimentConfig(n=SYMV_MIN_N, gap=0.2, trials=1, out_dir='out'))"
    )
    assert _loaded_after(body, tmp_path) == {"scipy.linalg"}


def test_one_trial_run_loads_no_process_pool(tmp_path):
    pool = ("multiprocessing", "concurrent.futures.process")
    body = "run_experiment(ExperimentConfig(n=16, gap=0.2, trials=1, out_dir='out'))"
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
