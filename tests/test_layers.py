"""The layer boundary: the driver core reaches Spark only through ``repro.spark``.

TxAllo runs on the driver, deterministic and sequential (paper §IV-A), and
Spark carries only the bulk dataflow around it (DESIGN.md §5). So of the
modules under ``src/repro`` only ``spark.py`` imports pyspark, and none
imports DuckDB, which only the tests' oracle uses. Likewise each data
format has one owner: the stream's Arrow column, the CSR and the C
boundary.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORE = ("chain", "graph", "metrics", "sim", "baselines", "txallo", "louvain")


def _run_fresh(code: str, env: dict | None = None) -> None:
    """Run ``code`` in a fresh interpreter, in ``env`` or by default with
    ``src`` on ``PYTHONPATH``; it must exit 0."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = env or {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _sources_matching(pattern: str) -> set[str]:
    """The modules under ``src/repro`` whose source matches ``pattern``."""
    regex = re.compile(pattern, re.M)
    files = (SRC / "repro").rglob("*.py")
    return {p.relative_to(SRC / "repro").as_posix() for p in files if regex.search(p.read_text())}


def _importers(module: str) -> set[str]:
    return _sources_matching(rf"^\s*(from|import) {module}\b")


def test_core_loads_no_pyspark():
    """A fresh interpreter that imports every core package has not loaded pyspark."""
    code = "import sys\n" + "".join(f"import repro.{m}\n" for m in CORE)
    code += 'assert "pyspark" not in sys.modules, sorted(m for m in sys.modules if "spark" in m)\n'
    _run_fresh(code)


def test_only_spark_module_and_oracle_import_pyspark():
    """The DuckDB oracle is ``tests/oracle.py``, so no ``repro`` module imports duckdb."""
    assert _importers("pyspark") == {"spark.py"}
    assert _importers("duckdb") == set()


def test_every_job_imports_without_pyspark():
    """Every ``jobs/*.py`` module imports, and loads no pyspark until a job runs."""
    jobs = sorted(p.stem for p in (ROOT / "jobs").glob("*.py"))
    code = f"import importlib, sys\nsys.path.insert(0, {str(ROOT / 'jobs')!r})\n"
    code += f"for m in {jobs!r}:\n    importlib.import_module(m)\n"
    _run_fresh(code + 'assert "pyspark" not in sys.modules\n')


def test_stream_format_in_one_module():
    """The transaction stream's ``accounts`` column is Arrow, and
    ``chain/ethdata.py`` alone builds and reads it; every other module
    gets the stream's incidence as numpy arrays from ``tx_incidence``."""
    assert _importers("pyarrow") == {"chain/ethdata.py"}


def test_graph_format_and_c_boundary_each_in_one_module():
    """Only ``graph/adjacency.py`` constructs a ``CSR`` or an ``Adjacency``,
    so every graph a kernel sees was built and checked there; only
    ``kernels.py`` hands numpy buffers to C."""
    assert _sources_matching(r"\b(CSR|Adjacency)\(") == {"graph/adjacency.py"}
    assert _sources_matching(r"\bfrom_buffer\(") == {"kernels.py"}


def test_spark_workers_find_repro_without_pythonpath():
    """Spark's Python workers run repro's counters and import ``repro``,
    though only the driver's ``sys.path`` names it, as in the jobs."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import pandas as pd
from repro.spark import collect_stats, session, spark_transactions

spark = session("fresh")
pdf = pd.DataFrame({{"tx_id": [0, 1, 2], "block": 0, "accounts": [[1, 2], [3], [2, 3]]}})
(triple,) = collect_stats(spark_transactions(spark, pdf), [1, 2, 3], [[0, 0, 1]]).values()
assert triple[:2] == (3, 1), triple
spark.stop()
"""
    _run_fresh(code, env)
