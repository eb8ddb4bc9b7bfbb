"""The layer boundary: the driver core reaches Spark only through ``repro.spark``.

TxAllo runs on the driver, deterministic and sequential (paper §IV-A), and
Spark carries only the bulk dataflow around it (DESIGN.md §5). So the
generator, graph, metrics, allocators and simulations import no pyspark;
only ``repro/spark.py`` and the test-only DuckDB oracle do.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = ("chain", "graph", "metrics", "sim", "baselines", "txallo", "louvain")


def test_core_loads_no_pyspark():
    """A fresh interpreter that imports every core package has not loaded pyspark."""
    code = "import sys\n" + "".join(f"import repro.{m}\n" for m in CORE)
    code += 'assert "pyspark" not in sys.modules, sorted(m for m in sys.modules if "spark" in m)\n'
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_only_spark_module_and_oracle_import_pyspark():
    pattern = re.compile(r"^\s*(from|import) pyspark\b", re.M)
    importers = {
        p.relative_to(SRC / "repro").as_posix()
        for p in (SRC / "repro").rglob("*.py")
        if pattern.search(p.read_text())
    }
    assert importers == {"spark.py", "oracle.py"}
