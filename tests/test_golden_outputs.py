"""Seeded runs write the same bytes.

Each case is one `runner.run` over two seeds with timing off.  The sha256
of its CSV and `.params` files, read in a fixed order, must equal the
digest recorded here, so a refactor that claims to keep behaviour keeps
every metric row and every trained parameter bit for bit.  The digests
depend on float rounding, so they hold on the platform that recorded
them (x86-64, numpy 2.4 with OpenBLAS).  Print fresh digests with

    PYTHONPATH=src python tests/test_golden_outputs.py

A deliberate change reports how far each case moved.  Keep the outputs of
the tree before the change with `--write DIR`, then run `--compare DIR` on
the changed tree: per case it prints the old and new digests, whether the
`.params` bytes and the `loss` and `modes` columns are equal, and the
largest relative gap in `d_tv`, `d_jsd` and `acc`.
"""

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import pytest

from gflow import runner
from gflow.training import ROSTER

SEEDS = (0, 1)
ITERATIONS = 20
GRID = "env = grid\nd = 4\nn = 4\ntabular = on\n"
SEQ = "env = sequence\nd = 3\nn = 3\nreward_seed = 2\ntabular = on\n"
GRID_MLP = "env = grid\nd = 4\nn = 4\ntabular = off\nhidden = 8, 8\n"
# The benchmark's sequence shape: 15 625 states, a 15 625 x 25 forward table.
SEQ_BENCH = "env = sequence\nd = 6\nn = 4\ntabular = on\n"
# The same shape with the benchmark's (64, 64) MLP: an eval row evaluates
# the 15 625 states in row blocks, the last one short.
SEQ_BENCH_MLP = "env = sequence\nd = 6\nn = 4\ntabular = off\nhidden = 64, 64\n"
# A 1000-wide MLP: a row block holds 32 rows, so an RL batch of 16
# trajectories spans several row blocks.
SEQ_WIDE_MLP = "env = sequence\nd = 6\nn = 4\ntabular = off\nhidden = 1000\n"
COMMON = (f"iterations = {ITERATIONS}\nbatch = 16\neval_every = 5\ntiming = off\n"
          f"lr_policy = 0.04\nlr_value = 0.3\nlr_logz = 0.02\n"
          f"seeds = {', '.join(map(str, SEEDS))}\n")

CASES = ([(f"grid-{s}", GRID, s) for s, row in ROSTER.items() if not row.graded]
         + [(f"seq-{s}", SEQ, s) for s in ROSTER]
         + [(f"grid-mlp-{s}", GRID_MLP, s) for s in ("TB-U", "RL-B")]
         + [("seq-bench-RL-U", SEQ_BENCH, "RL-U"),
            ("seq-bench-mlp-TB-U", SEQ_BENCH_MLP, "TB-U"),
            ("seq-mlp-wide-RL-B", SEQ_WIDE_MLP, "RL-B")])

DIGESTS = {
    "grid-DB-U": "2f9d1d1f77ae21440dded19568a48bff70bc1b7a05837dd3e6d91f0ca92740fa",
    "grid-DB-B": "afa63172b8ee38c67f4a6b03e76623fddac9c7780d5640d28184c3e3d6038446",
    "grid-TB-U": "a32195cb1a6907f9681a74eb74559d3b0d15c8a1b04f8c07cea548c73f8d63ff",
    "grid-TB-B": "1e706b592c4bddeb0df15782c56c6a094e629c03ab7bed5b7a5ea556984c07f6",
    "grid-RL-U": "5a9112cbc7750f06427ce8eb93f85ef37998f13cabc4b3f6c6440f1acd05306b",
    "grid-RL-B": "5bf491b896ad58ff55df168473e7d55c7419a7a9e647c8159e02c88c98f524a7",
    "grid-RL-T": "5e5b1987ab2581f9287a2180fb99b308c20c55f4df9d49ae8440b37a062b649b",
    "grid-RL-G": "44d08d34ccbd35e3e492cc70ae00cc108a47dfe2fc17dc7c366cae7ce3f529ba",
    "seq-DB-U": "8f62632158b3c33891f0028e5a5a7dadb20f93bf75d4cfd35f47794460bbcee8",
    "seq-DB-B": "cb660da14fd593ccf071611dbcddefdb043a29b07e9da97e4aa2e09f0f4f6393",
    "seq-TB-U": "52f12bfe4e2acd87e1f7d188755d5873c3166b518f207550130e67c899de249b",
    "seq-TB-B": "9b48d94925d227fe6e423e8d5795e803f484a6ab932e52a4c0ab9949bce3c4b7",
    "seq-TB-Sub": "deeaed502e54f88b63b1d3d1c1acc8dd05ab8d35b3daf60cc3d5f58549f683c6",
    "seq-RL-U": "7e3837c51e39ac0c09d2350e6ee88f8e8856ce428ef63b4cfe78dc2142e0973e",
    "seq-RL-B": "94bdc19581803886448d0f581ab3e8c17046ce43ee608f408789283300dcbfae",
    "seq-RL-T": "9064c173ec9deb7419fab3ce7cafd75ae50a0ebb5a0dfc8936601be244d19f19",
    "seq-RL-G": "1eaca0c9e99f8b6b7366607914d1f7cf7a34495202a7c6f12a0d7878f00386f1",
    "grid-mlp-TB-U": "d335b11c4c3235ab383cce6f28c11eab2f377bbe1384dfe9473e5bcb35639dc6",
    "grid-mlp-RL-B": "4889c75e283673eceb8d29978c532654f2382f38174dd3570f6b2a5186d3b426",
    "seq-bench-RL-U": "2620ffbab559a1b3932c8838abf110a4cbda01ac34af7e0a31a265f311e0b0ff",
    "seq-bench-mlp-TB-U": "f85b23e0475d1fee1dd8ecd836983a4c61fe5b120292c2493129b4ec1c96c64e",
    "seq-mlp-wide-RL-B": "a92b0a4a4be587677703bc87b18828bb6a11cf6119ad83c30863b09729cab8a3",
}


def output_files(strategy):
    """The files a case writes, in digest order."""
    return [f"{strategy}_seed{seed}{suffix}" for seed in SEEDS for suffix in (".csv", ".params")]


def digest_of(strategy, out_dir):
    digest = hashlib.sha256()
    for name in output_files(strategy):
        digest.update((Path(out_dir) / name).read_bytes())
    return digest.hexdigest()


def run_digest(base, strategy, out_dir):
    cfg = runner.parse_config_text(f"{base}{COMMON}strategy = {strategy}\n")
    runner.run(cfg, out=out_dir)
    return digest_of(strategy, out_dir)


@pytest.mark.parametrize("name, base, strategy", CASES, ids=[c[0] for c in CASES])
def test_seeded_run_outputs_are_unchanged(name, base, strategy, tmp_path):
    assert run_digest(base, strategy, tmp_path) == DIGESTS[name]


# CSV columns whose last bits an evaluation change may move, by index.
GAP_COLUMNS = {"d_tv": 2, "d_jsd": 3, "acc": 4}


def column_gaps(old_csv, new_csv):
    """(loss and modes equal, largest relative gap per column of GAP_COLUMNS)
    between two metrics files of the same run."""
    old, new = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (old_csv, new_csv))
    if old.shape != new.shape:
        return False, {c: np.inf for c in GAP_COLUMNS}
    exact = all(old[:, i].tobytes() == new[:, i].tobytes() for i in (1, 5))
    gaps = {}
    for c, i in GAP_COLUMNS.items():
        scale = np.maximum(np.abs(old[:, i]), np.abs(new[:, i]))
        diff = np.abs(old[:, i] - new[:, i])
        gaps[c] = float(np.max(np.where(diff > 0, diff / np.where(scale > 0, scale, 1.0), 0.0)))
    return exact, gaps


def compare(old_dir, base, strategy, out_dir):
    """One report line: old -> new digest, .params bytes equal, loss and
    modes equal, and the largest relative gaps of the eval columns."""
    old_dir = Path(old_dir)
    new = run_digest(base, strategy, out_dir)
    old = digest_of(strategy, old_dir)
    params = all((old_dir / f).read_bytes() == (Path(out_dir) / f).read_bytes()
                 for f in output_files(strategy) if f.endswith(".params"))
    exact, gaps = True, dict.fromkeys(GAP_COLUMNS, 0.0)
    for f in output_files(strategy):
        if f.endswith(".csv"):
            same, part = column_gaps(old_dir / f, Path(out_dir) / f)
            exact = exact and same
            gaps = {c: max(gaps[c], part[c]) for c in GAP_COLUMNS}
    moved = "same" if old == new else f"{old[:8]} -> {new[:8]}"
    return (f"{moved}  params {'equal' if params else 'DIFFER'}  "
            f"loss/modes {'equal' if exact else 'DIFFER'}  "
            + "  ".join(f"{c} {g:.1e}" for c, g in gaps.items()))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="DIR", help="keep every case's output files in DIR")
    mode.add_argument("--compare", metavar="DIR",
                      help="rerun every case and report its gaps to the files in DIR")
    args = parser.parse_args(argv)
    for name, base, strategy in CASES:
        with tempfile.TemporaryDirectory() as out:
            if args.compare:
                print(f"{name:20s} {compare(Path(args.compare) / name, base, strategy, out)}")
                continue
            digest = run_digest(base, strategy, out)
            if args.write:
                shutil.copytree(out, Path(args.write) / name)
            print(f'    "{name}": "{digest}",')


if __name__ == "__main__":
    main(sys.argv[1:])
