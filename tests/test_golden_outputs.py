"""Seeded runs write the same bytes.

Each case is one `runner.run` over two seeds with timing off.  The sha256
of its CSV and `.params` files, read in a fixed order, must equal the
digest recorded here, so a refactor that claims to keep behaviour keeps
every metric row and every trained parameter bit for bit.  The digests
depend on float rounding, so they hold on the platform that recorded
them (x86-64, numpy 2.4 with OpenBLAS).  Print fresh digests with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

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
    "grid-DB-U": "fa52a8d63226edf2914dd73ecc357d5e599c9320075f9f8aad52697b2786f829",
    "grid-DB-B": "bbb74baec610557a48b8ad2a73c1d2584291accf9964cab674abba7a54fe9d87",
    "grid-TB-U": "bfaf87b5bea3524788929818bd1ca65e2203f2790bd9a94d172ad6b81c76cf8d",
    "grid-TB-B": "4f732a392d3a35a084d5452317a27fc9a234464fd1c0747b7406c002d8301e09",
    "grid-RL-U": "51a802d0a43937375514bc10311a3c2bea578f07b888a550be94c37615480085",
    "grid-RL-B": "ebf749582c57076c8bff4f3063a70eeef67c8b103333e11d0c3905cbc5d902cf",
    "grid-RL-T": "482e35501398c53d172b644e6401e552f303c534c0efc2ea294ac7b474e6d69e",
    "grid-RL-G": "c302c3bc62fd7c180e182c804a2c3af434c99e633bdace6095a17b31e2880391",
    "seq-DB-U": "31e88ff2e5ea454c6e05cedb4d20def6b8b221e478029414f35e3c65c086486b",
    "seq-DB-B": "0cb9650dd80c45f0972442adee8b2c2dc8223e1a08e73f9bf3a0ce57775a8e6c",
    "seq-TB-U": "ec9425ac8c635dddb5fb6646df59d2a7f0d6e855bfeb9939bf7a73ca43100491",
    "seq-TB-B": "2e403c245b0e0cef467db0fd4f0903298e19a513c68a1f3833390d1378cf4ddd",
    "seq-TB-Sub": "57815382d2c0beaed2fb9c5cc3b451a6401a72695df41df6dfba6f3a04da674e",
    "seq-RL-U": "4d7b46eb550cbe0839efc0c1b631ba2f7b6895e0587afb3614913621a3d29040",
    "seq-RL-B": "c6985652f43f3476ea67ad1954f549a98e7a1a481c295e0998feb3fb47d1510b",
    "seq-RL-T": "749844edea575ad496e1e6ddd019a6fec21897229e48c5f20c8cf2e7aeabd1aa",
    "seq-RL-G": "9876e827488196c7a7ada7166a82a66b6eb81e458aceafdcd72c28ddc91eee80",
    "grid-mlp-TB-U": "d335b11c4c3235ab383cce6f28c11eab2f377bbe1384dfe9473e5bcb35639dc6",
    "grid-mlp-RL-B": "4889c75e283673eceb8d29978c532654f2382f38174dd3570f6b2a5186d3b426",
    "seq-bench-RL-U": "a562de36f33067d53ebb1301e8efd41cbe203eaa099938c1c4461f677fcff450",
    "seq-bench-mlp-TB-U": "f85b23e0475d1fee1dd8ecd836983a4c61fe5b120292c2493129b4ec1c96c64e",
    "seq-mlp-wide-RL-B": "a92b0a4a4be587677703bc87b18828bb6a11cf6119ad83c30863b09729cab8a3",
}


def run_digest(base, strategy, out_dir):
    cfg = runner.parse_config_text(f"{base}{COMMON}strategy = {strategy}\n")
    runner.run(cfg, out=out_dir)
    digest = hashlib.sha256()
    for seed in SEEDS:
        for suffix in (".csv", ".params"):
            digest.update((Path(out_dir) / f"{strategy}_seed{seed}{suffix}").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, base, strategy", CASES, ids=[c[0] for c in CASES])
def test_seeded_run_outputs_are_unchanged(name, base, strategy, tmp_path):
    assert run_digest(base, strategy, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    for name, base, strategy in CASES:
        with tempfile.TemporaryDirectory() as out:
            print(f'    "{name}": "{run_digest(base, strategy, out)}",', file=sys.stdout)
