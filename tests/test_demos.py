"""Every script in demos/ runs to completion and prints the bytes it printed
when its digest was recorded.

No demo prints a time, so a demo's stdout is a deterministic function of
the library.  Like the golden digests, the pins hold on the platform that
recorded them (x86-64, numpy 2.4 with OpenBLAS).  A change that alters a
demo's output on purpose updates its digest here and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "balance_vs_advantage": "df3138e3b8d3528714b8656d1954c2214f561c0b9b65acff47319c2c0f93451e",
    "bound_certificates": "fa47ff0c9a23b87eb784cd33639c2ed1978ebab6fab831814d0385fcc5d1c762",
    "exact_grid_anatomy": "b603267504e2500b6534aeae1e41fb287c14c4f9716e984b93c1b5405277bd68",
    "guided_sequence_design": "e99956a6f35d871628e0b692418c6dd29266fa4c11b35e0579af4f38c53b2a2c",
    "trust_region_walkthrough": "ad59ea8d65597a64e589fa2a72796de7bc05a9d9610dba05acbc9e66edea591d",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    got = hashlib.sha256(proc.stdout).hexdigest()
    assert got == STDOUT_SHA256[demo.stem], (
        f"{demo.name} printed other bytes than its pinned output:\n"
        f"old sha256 {STDOUT_SHA256[demo.stem]}\nnew sha256 {got}\n"
        f"new output:\n{proc.stdout.decode()}")
