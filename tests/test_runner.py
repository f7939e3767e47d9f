"""Experiment orchestration: config parsing, CSV emission, determinism,
aggregation, and the command-line wrappers."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gflow.cli import main
from gflow.envs import SequenceEnv, save_reward_table, synthetic_rewards
from gflow.errors import ConfigError
from gflow import runner
from gflow.runner import (
    HEADER,
    RunConfig,
    build_env,
    check_memory,
    parse_config_text,
    read_metrics,
    run,
    run_seed,
    summarize,
)
from gflow.training import FIELD_KEYS, Trainer, TrainerConfig

SMALL_GRID = """
env = grid
d = 2
n = 3
strategy = TB-U
iterations = 10
batch = 8
eval_every = 5
tabular = on
timing = off
seeds = 0
"""


def seed_run(cfg, seed, out_dir):
    """run_seed on a fresh env of an enumerable config."""
    env = build_env(cfg)
    return run_seed(cfg, env, seed, out_dir, env.enumeration())


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- config parsing ------------------------------------------------------------


def test_parse_config_full_round_trip():
    cfg = parse_config_text("""
        # experiment block
        env = sequence
        d = 3
        n = 4
        strategy = RL-B
        iterations = 250   # inline comment
        batch = 32
        lambda = 0.9
        zeta = 0.02
        gamma = 0.95
        lr_policy = 0.01
        eval_every = 25
        seeds = 0, 1, 2
        hidden = 32 32
        tabular = off
        timing = on
        mode_samples = 500
    """)
    assert cfg.env == "sequence"
    assert (cfg.d, cfg.n) == (3, 4)
    assert cfg.strategy == "RL-B"
    assert cfg.iterations == 250
    assert cfg.lam == 0.9
    assert cfg.seeds == (0, 1, 2)
    assert cfg.hidden == (32, 32)
    assert cfg.tabular is False and cfg.timing is True
    assert cfg.mode_samples == 500


def test_parse_config_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()


@pytest.mark.parametrize("text,fragment", [
    ("wibble = 3", "unknown key"),
    ("batch_size = 4", "unknown key 'batch_size'"),
    ("lam = 0.5", "unknown key 'lam'"),
    ("iterations = soon", "bad value"),
    ("just a line", "expected 'key = value'"),
    ("strategy = TB-X", "unknown strategy"),
    ("env = maze", "unknown env"),
    ("strategy = TB-Sub", "equal-length"),
    ("zeta = 0", "zeta"),
    ("lambda = 1.5", "lambda"),
    ("gamma = 0", "gamma"),
    ("batch = 0", "batch"),
    ("eval_every = 0", "eval_every"),
    ("seeds =", "seeds"),
    ("tabular = maybe", "on/off"),
    ("timing = maybe", "config line 1: bad value for 'timing': expected on/off, got 'maybe'"),
    ("seeds = 1\nbatch = 4\n\nbatch = 8", "config line 4: 'batch' repeats config line 2"),
    ("lr_value = -1", "lr_value"),
    ("r0 = 0", "grid rewards"),
    ("r0 = -1", "grid rewards"),
    ("r1 = -0.01", "grid rewards"),
    ("r2 = -2.6", "grid rewards"),
    ("guide_eps = -1", "guide_eps"),
    ("seeds = -1", "seed must be nonnegative"),
    ("seeds = 0, -2", "seed must be nonnegative"),
    ("seeds = 0, 0", "seed 0 is repeated"),
    ("seeds = 3, 1, 3", "seed 3 is repeated"),
    ("subtb_base = 0", "subtb_base"),
    ("subtb_base = -0.5", "subtb_base"),
    ("env = sequence\nreward_seed = -1", "reward_seed must be nonnegative"),
    ("lr_policy = nan", "lr_policy must be finite"),
    ("zeta = inf", "zeta must be finite"),
    ("subtb_base = nan", "subtb_base must be finite"),
    ("guide_eps = nan", "guide_eps must be finite"),
    ("lambda = nan", "lambda must be finite"),
    ("r1 = -inf", "r1 must be finite"),
    ("hidden = 0", "hidden layer widths"),
    ("hidden = 8, 0", "hidden layer widths"),
    ("mode_samples = -4", "mode_samples must be nonnegative"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cfg = parse_config_text(text)
        # Only the grid's reward levels pass parsing: HyperGrid checks them.
        assert fragment == "grid rewards"
        build_env(cfg)


# Every float field's config key, read from the fields' default types.
FLOAT_KEYS = [FIELD_KEYS.get(f.name, f.name) for f in fields(RunConfig)
              if type(f.default) is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_parse_config_rejects_every_non_finite_float(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
        parse_config_text(f"{key} = {value}")


def test_every_float_key_is_checked_for_finiteness():
    assert set(FLOAT_KEYS) >= {"lambda", "gamma", "zeta", "lr_policy", "lr_value", "lr_logz",
                               "subtb_base", "guide_eps", "beta", "r0", "r1", "r2"}


@pytest.mark.parametrize("make, fragment", [
    (lambda: RunConfig(strategy="bogus"), "unknown strategy 'bogus'"),
    (lambda: RunConfig(batch_size=0), "batch must be at least 1"),
    (lambda: TrainerConfig(batch_size=0), "batch must be at least 1"),
    (lambda: TrainerConfig(gamma=2.0), r"gamma must lie in \(0, 1\]"),
    (lambda: RunConfig(strategy="RL-U", lam=5.0), r"lambda must lie in \[0, 1\]"),
    (lambda: TrainerConfig(batch_size=2.5), "batch must be an integer, got 2.5"),
    (lambda: RunConfig(d=2.5), "d must be an integer, got 2.5"),
    (lambda: TrainerConfig(hidden=5), "hidden must be a tuple of integers, got 5"),
    (lambda: RunConfig(seeds=3), "seeds must be a tuple of integers, got 3"),
    (lambda: TrainerConfig(lam="0.5"), "lambda must be a number, got '0.5'"),
    (lambda: TrainerConfig(tabular="no"), "tabular must be a bool, got 'no'"),
], ids=["run-strategy", "run-batch", "trainer-batch", "trainer-gamma", "run-lambda",
        "float-batch", "float-d", "int-hidden", "int-seeds", "str-lambda", "str-tabular"])
def test_configs_built_through_the_api_are_checked(make, fragment):
    with pytest.raises(ConfigError, match=fragment):
        make()


def test_configs_are_frozen():
    with pytest.raises(FrozenInstanceError):
        RunConfig().batch_size = 4
    with pytest.raises(FrozenInstanceError):
        TrainerConfig().lam = 0.5


def test_build_env_uses_reward_table(tmp_path):
    rewards = synthetic_rewards(2, 3, seed=5)
    table = tmp_path / "rewards.tsv"
    save_reward_table(table, 2, 3, rewards)
    cfg = parse_config_text(f"env = sequence\nd = 2\nn = 3\n"
                            f"reward_table = {table}")
    env = build_env(cfg)
    assert isinstance(env, SequenceEnv)
    np.testing.assert_array_equal(env.rewards_table, rewards)
    bad = parse_config_text(f"env = sequence\nd = 3\nn = 3\n"
                            f"reward_table = {table}")
    with pytest.raises(ConfigError, match="reward table"):
        build_env(bad)


# -- run_seed ------------------------------------------------------------------


def test_zero_iterations_writes_header_only(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("iterations = 10",
                                               "iterations = 0"))
    path = seed_run(cfg, 0, tmp_path)
    assert path.read_text() == HEADER + "\n"
    assert read_metrics(path).shape == (0, 7)
    assert (tmp_path / "TB-U_seed0.params").exists()
    with pytest.raises(ConfigError, match="no metric rows"):
        summarize([path])


def test_metric_rows_follow_eval_cadence(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("iterations = 10",
                                               "iterations = 8")
                            .replace("eval_every = 5", "eval_every = 3"))
    arr = read_metrics(seed_run(cfg, 0, tmp_path))
    # Multiples of the cadence plus the final iteration.
    np.testing.assert_array_equal(arr[:, 0], [0, 3, 6, 7])
    assert np.all(np.isfinite(arr[:, 1]))
    assert np.all((arr[:, 2] >= 0) & (arr[:, 2] <= 1))
    assert np.all(arr[:, 6] == 0.0)


def test_rerun_is_byte_identical_with_timing_off(tmp_path):
    cfg = parse_config_text(SMALL_GRID)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = seed_run(cfg, 0, tmp_path / "a")
    b = seed_run(cfg, 0, tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a" / "TB-U_seed0.params").read_bytes() == \
        (tmp_path / "b" / "TB-U_seed0.params").read_bytes()


def test_timing_column_is_the_only_nondeterminism(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("timing = off", "timing = on"))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = read_metrics(seed_run(cfg, 0, tmp_path / "a"))
    b = read_metrics(seed_run(cfg, 0, tmp_path / "b"))
    np.testing.assert_array_equal(a[:, :6], b[:, :6])
    assert np.all(a[:, 6] > 0)


def test_seeds_produce_distinct_runs(tmp_path):
    cfg = parse_config_text(SMALL_GRID)
    a = read_metrics(seed_run(cfg, 0, tmp_path))
    b = read_metrics(seed_run(cfg, 1, tmp_path))
    assert not np.array_equal(a[:, 1], b[:, 1])


def test_non_enumerable_env_reports_nan_metrics(tmp_path):
    # 8^8 states sit over the enumeration cap; training still runs, and the
    # exact columns and the mode count, which has no mode set, read nan.
    cfg = parse_config_text("""
        env = grid
        d = 8
        n = 8
        strategy = TB-U
        iterations = 2
        batch = 4
        eval_every = 1
        hidden = 8
        timing = off
    """)
    arr = read_metrics(run(cfg, out=tmp_path)[0])
    assert np.all(np.isfinite(arr[:, 1]))
    assert np.all(np.isnan(arr[:, 2:6]))


def test_checkpoint_loads_back_into_matching_suite(tmp_path):
    cfg = parse_config_text(SMALL_GRID)
    env = build_env(cfg)
    run_seed(cfg, env, 0, tmp_path, env.enumeration())
    trainer = Trainer(env, TrainerConfig(strategy="TB-U", batch_size=8,
                                         tabular=True),
                      np.random.default_rng(99))
    before = trainer.suite.forward.model.table.data.copy()
    trainer.suite.load(tmp_path / "TB-U_seed0.params")
    assert not np.array_equal(before, trainer.suite.forward.model.table.data)


def test_every_trainer_field_reaches_the_trainer(tmp_path, monkeypatch):
    want = {"strategy": "RL-G", "batch_size": 6, "lam": 0.5, "gamma": 0.9,
            "zeta": 0.05, "lr_policy": 0.02, "lr_value": 0.03, "lr_logz": 0.2,
            "subtb_base": 0.8, "hidden": (5, 3), "tabular": True, "guide_eps": 1e-4}
    # A new TrainerConfig field must be added here, with a non-default value.
    assert set(want) == {f.name for f in fields(TrainerConfig)}
    cfg = parse_config_text("""
        env = grid
        d = 2
        n = 3
        iterations = 1
        timing = off
        strategy = RL-G
        batch = 6
        lambda = 0.5
        gamma = 0.9
        zeta = 0.05
        lr_policy = 0.02
        lr_value = 0.03
        lr_logz = 0.2
        subtb_base = 0.8
        hidden = 5, 3
        tabular = on
        guide_eps = 1e-4
    """)
    built = []

    class RecordingTrainer(Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "Trainer", RecordingTrainer)
    seed_run(cfg, 0, tmp_path)
    (trainer,) = built
    default = TrainerConfig()
    for name, value in want.items():
        assert value != getattr(default, name), name
        assert getattr(trainer.cfg, name) == value, name


# -- run over seeds ------------------------------------------------------------


def test_run_writes_one_csv_per_seed(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("seeds = 0", "seeds = 0, 1"))
    paths = run(cfg, out=tmp_path)
    assert [p.name for p in paths] == ["TB-U_seed0.csv", "TB-U_seed1.csv"]
    assert all(p.exists() for p in paths)


def test_run_single_seed_override(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("seeds = 0", "seeds = 0, 1"))
    paths = run(cfg, seed=3, out=tmp_path)
    assert [p.name for p in paths] == ["TB-U_seed3.csv"]


@pytest.mark.parametrize("strategy", ["DB-U", "DB-B", "TB-U", "TB-B",
                                      "TB-Sub", "RL-U", "RL-B", "RL-T", "RL-G"])
def test_every_strategy_runs_clean(tmp_path, strategy):
    text = SMALL_GRID.replace("strategy = TB-U", f"strategy = {strategy}")
    if strategy == "TB-Sub":
        text = text.replace("env = grid", "env = sequence").replace("n = 3", "n = 2")
    cfg = parse_config_text(text)
    arr = read_metrics(seed_run(cfg, 0, tmp_path))
    np.testing.assert_array_equal(arr[:, 0], [0, 5, 9])
    assert np.all(np.isfinite(arr[:, 1]))
    assert np.all((arr[:, 2] >= 0) & (arr[:, 2] <= 1))


def test_training_reduces_distribution_gap(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("iterations = 10",
                                               "iterations = 300")
                            .replace("eval_every = 5", "eval_every = 50")
                            .replace("batch = 8", "batch = 32")
                            + "lr_policy = 0.05\n")
    arr = read_metrics(seed_run(cfg, 0, tmp_path))
    assert arr[-1, 2] < 0.05 < arr[0, 2]


# -- aggregation ---------------------------------------------------------------


def csv_text(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def test_read_metrics_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("time,loss\n0,1\n")
    with pytest.raises(ConfigError, match="expected header"):
        read_metrics(p)
    p.write_text(HEADER + "\n1,2,3\n")
    with pytest.raises(ConfigError, match="columns"):
        read_metrics(p)
    p.write_text(csv_text(["0,1.0,0.2,0.1,0.5,3,0.000", "9,1.0,0.4,0.1,0.5"]))
    with pytest.raises(ConfigError, match=r"x\.csv line 3: .*columns"):
        read_metrics(p)
    p.write_text(csv_text(["0,1.0,0.2,0.1,0.5,3,0.000", "9,1.0,soon,0.1,0.5,3,0.000"]))
    with pytest.raises(ConfigError, match=r"x\.csv line 3: .*soon"):
        read_metrics(p)


def test_summarize_single_file_window(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text(csv_text(["0,1.0,0.2,0.1,0.5,3,0.000",
                           "9,1.0,0.4,0.1,0.5,3,0.000"]))
    table = summarize([p], window=2)
    assert table["iter"] == 9
    assert table["d_tv"] == (pytest.approx(0.3), 0.0)
    # window=1 keeps only the last row.
    assert summarize([p], window=1)["d_tv"] == (pytest.approx(0.4), 0.0)


def test_summarize_across_files_sample_std(tmp_path):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    pa.write_text(csv_text(["9,1.0,0.1,0.0,1.0,2,0.000"]))
    pb.write_text(csv_text(["9,3.0,0.3,0.0,1.0,4,0.000"]))
    table = summarize([pa, pb], window=1)
    assert table["loss"][0] == pytest.approx(2.0)
    assert table["loss"][1] == pytest.approx(np.sqrt(2.0))
    assert table["modes"][0] == pytest.approx(3.0)


def test_summarize_rejects_mismatched_final_iterations(tmp_path):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    pa.write_text(csv_text(["9,1.0,0.1,0.0,1.0,2,0.000"]))
    pb.write_text(csv_text(["19,1.0,0.1,0.0,1.0,2,0.000"]))
    with pytest.raises(ConfigError, match="different iterations"):
        summarize([pa, pb], window=1)
    with pytest.raises(ConfigError, match="at least one"):
        summarize([])


# -- command line --------------------------------------------------------------


def test_cli_run_then_summarize(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(out / "TB-U_seed0.csv")]
    assert main(["summarize", str(out / "TB-U_seed0.csv")]) == 0
    text = capsys.readouterr().out
    assert "final iteration: 9" in text
    assert "d_tv" in text


def test_cli_seed_flag(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(out)]) == 0
    assert (out / "TB-U_seed7.csv").exists()
    capsys.readouterr()


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--seed", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "seed must be nonnegative, got -1" in err
    assert not out.exists()


def test_cli_rejects_an_output_directory_under_a_file(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    cfg_path = write_cfg(tmp_path, SMALL_GRID)
    out = tmp_path / "afile" / "sub"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{out}: cannot create output directory" in err


def test_unwritable_outputs_raise_config_error(tmp_path):
    cfg = parse_config_text(SMALL_GRID.replace("iterations = 10", "iterations = 1"))
    env = build_env(cfg)
    with pytest.raises(ConfigError, match="cannot write output"):
        run_seed(cfg, env, 0, tmp_path / "missing", env.enumeration())


def test_cli_rejects_a_reward_table_larger_than_memory(tmp_path, capsys):
    # 20**30 entries: numpy cannot even shape such a table.
    cfg_path = write_cfg(tmp_path, "env = sequence\nd = 30\nn = 20\niterations = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "reward table of 20**30 sequences exceeds physical memory" in err
    assert not out.exists()


# -- BLAS threads ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# Prints the OpenBLAS thread count before and after `import gflow`, or
# "none" when no OpenBLAS getter is loaded.
BLAS_PROBE = """
import ctypes
import numpy
getter = None
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        getter = getter or getattr(lib, sym, None)
if getter is None:
    print("none")
else:
    getter.restype, getter.argtypes = ctypes.c_int, []
    before = getter()
    import gflow
    print(before, getter())
"""


def run_python(args, blas_threads, cwd):
    """Run Python with `args` in `cwd`, gflow imported from this tree's src/
    and OPENBLAS_NUM_THREADS set; returns the finished process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def child(args, blas_threads, cwd):
    """run_python that must succeed; returns stdout."""
    proc = run_python(args, blas_threads, cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_importing_gflow_sets_openblas_to_one_thread(tmp_path):
    out = child(["-c", BLAS_PROBE], 2, tmp_path).split()
    if out == ["none"]:
        pytest.skip("numpy loaded no OpenBLAS with a thread-count getter")
    # The environment asks for 2 threads (OpenBLAS caps that at the core
    # count); after the import the getter reads 1.
    assert int(out[1]) == 1


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # RL-T's conjugate gradient takes dot products over the batch's visited
    # table rows (a few thousand entries), and every eval row scores 15 625
    # states, which is long enough for a threaded OpenBLAS to split and
    # round differently.
    cfg_path = write_cfg(tmp_path, "env = sequence\nd = 6\nn = 4\nstrategy = RL-T\n"
                                   "tabular = on\niterations = 3\nbatch = 32\n"
                                   "eval_every = 1\ntiming = off\nseeds = 0\n")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        child(["-m", "gflow", "run", "--config", str(cfg_path), "--out", str(out)],
              threads, tmp_path)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["RL-T_seed0.csv", "RL-T_seed0.params"]
    assert outputs[0] == outputs[1]


def fake_physical_memory(monkeypatch, nbytes):
    pages = {"SC_PHYS_PAGES": nbytes // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(runner.os, "sysconf", lambda name: pages[name])


def test_memory_plan_is_the_documented_arithmetic(monkeypatch):
    fake_physical_memory(monkeypatch, 8 << 30)
    cfg = parse_config_text("env = sequence\nd = 6\nn = 4\nstrategy = RL-G\ntabular = on\n")
    env = build_env(cfg)
    s, a, b = 5 ** 6, 25, 6
    # The batch, its backward walks and the mode samples: one Trajectory
    # and a (T + 1) x (width + 2) block of entries each.
    sampled = (128 + 128 + 128) * (runner.TRAJECTORY_BYTES + runner.SAMPLE_ENTRY_BYTES
                                   * (env.max_trajectory_len + 1) * (6 + 2))
    # Forward table, learned backward table, and two value tables.  The
    # largest evaluation block is the backward table's: 32 768 // 6 rows of
    # 6 entries.
    want = s * (runner.STATE_BYTES + runner.SLOT_BYTES * a) \
        + runner.TABULAR_ENTRY_BYTES * s * (a + b + 2) + sampled \
        + runner.EVAL_BLOCK_BYTES * 5461 * 6
    assert check_memory(cfg, env) == want
    # The same four models as (64, 64) Mlps on the 30-wide encoding: each
    # layer holds (fan_in + 1) * fan_out weights and biases, and an
    # evaluation block 32 768 // 64 rows of 64 entries.
    cfg = replace(cfg, tabular=False)
    mlp = sum(31 * 64 + 65 * 64 + 65 * k for k in (a, b, 1, 1))
    assert check_memory(cfg, env) == \
        s * (runner.STATE_BYTES + runner.SLOT_BYTES * a) + runner.TABULAR_ENTRY_BYTES * mlp \
        + sampled + runner.EVAL_BLOCK_BYTES * 512 * 64
    # Tabular SequenceEnv(9, 4) passes the enumeration cap but not 8 GiB.
    big = parse_config_text("env = sequence\nd = 9\nn = 4\nstrategy = RL-U\ntabular = on\n")
    with pytest.raises(ConfigError, match="exceeds physical memory"):
        check_memory(big, SequenceEnv(9, 4, np.ones(4 ** 9)))
    # Between two 100 000-wide hidden layers sit 10**10 weights, 80 GB: the
    # plan counts them, and refuses them, without building anything.
    cfg = replace(cfg, hidden=(100000, 100000))
    wide = sum(31 * 100000 + 100001 * 100000 + 100001 * k for k in (a, b, 1, 1))
    with pytest.raises(ConfigError, match="exceeds physical memory"):
        check_memory(cfg, env)
    fake_physical_memory(monkeypatch, 1 << 50)
    # A layer wider than autodiff.BLOCK makes a block of one row.
    assert check_memory(cfg, env) == \
        s * (runner.STATE_BYTES + runner.SLOT_BYTES * a) + runner.TABULAR_ENTRY_BYTES * wide \
        + sampled + runner.EVAL_BLOCK_BYTES * 100000
    # Narrower than the 30-wide encoding, an Mlp block is as wide as its
    # input: the backward policy's, widest output 8, is the largest.
    cfg = replace(cfg, hidden=(8, 8))
    narrow = sum(31 * 8 + 9 * 8 + 9 * k for k in (a, b, 1, 1))
    assert check_memory(cfg, env) == \
        s * (runner.STATE_BYTES + runner.SLOT_BYTES * a) + runner.TABULAR_ENTRY_BYTES * narrow \
        + sampled + runner.EVAL_BLOCK_BYTES * (32768 // 8) * 30


def test_memory_plan_covers_a_tabular_step():
    # Everything a tabular RL-G run on SequenceEnv(6, 4) holds through its
    # first step: the enumeration, the tables, Adam's state and one batch.
    cfg = parse_config_text("env = sequence\nd = 6\nn = 4\nstrategy = RL-G\ntabular = on\n")
    tracemalloc.start()
    try:
        env = build_env(cfg)
        enum = env.enumeration()
        Trainer(env, cfg, np.random.default_rng(0)).step(np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.n == 5 ** 6
    assert peak <= check_memory(cfg, env)


def test_memory_plan_covers_a_wide_mlp_run(tmp_path):
    # One iteration of a (1000,) Mlp run on SequenceEnv(6, 4), its eval row
    # over the 15 625 states included.
    cfg = parse_config_text("env = sequence\nd = 6\nn = 4\nstrategy = TB-U\ntabular = off\n"
                            "hidden = 1000\nbatch = 16\niterations = 1\nseeds = 0\n"
                            "timing = off\n")
    tracemalloc.start()
    try:
        runner.run(cfg, out=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= check_memory(cfg, build_env(cfg))


def test_cli_rejects_a_run_larger_than_memory_before_allocating(tmp_path, capsys,
                                                                monkeypatch):
    fake_physical_memory(monkeypatch, 4 << 20)
    table = tmp_path / "rewards.txt"
    save_reward_table(table, 6, 4, synthetic_rewards(6, 4, seed=0))
    cfg_path = write_cfg(tmp_path, "env = sequence\nd = 6\nn = 4\nstrategy = RL-U\n"
                                   f"tabular = on\niterations = 2\nreward_table = {table}\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds physical memory" in err
    assert not out.exists()
    # Reading the reward table peaks near 1 MB; the enumeration of the
    # 15 625 states alone would take about 7 MB, the forward table 3 MB more.
    assert peak < 2 << 20


@pytest.mark.parametrize("line", ["batch = 1000000000000", "mode_samples = 1000000000000"])
def test_cli_rejects_a_sample_larger_than_memory_before_allocating(tmp_path, capsys, line):
    cfg_path = write_cfg(tmp_path, f"iterations = 2\n{line}\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds physical memory" in err
    assert not out.exists()
    assert peak < 1 << 20


def test_cli_reports_a_diverged_policy_as_non_finite(tmp_path):
    # A fresh process, so that any numpy warning would reach stderr.
    cfg_path = write_cfg(tmp_path, "env = grid\nd = 2\nn = 8\nhidden = 16, 16\n"
                                   "strategy = TB-U\nbatch = 16\nlr_policy = 1e300\n"
                                   "iterations = 30\n")
    proc = run_python(["-m", "gflow", "run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")], 1, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: forward policy probabilities are non-finite\n"


def test_cli_rejects_a_non_finite_reward_table_line(tmp_path):
    # A fresh process, so that any numpy warning would reach stderr.  Run
    # on, the nan reward fails training with a message blaming the loss.
    table = tmp_path / "rewards.tsv"
    save_reward_table(table, 2, 3, np.arange(1.0, 10.0))
    lines = table.read_text().splitlines()
    lines[4] = lines[4].split("\t")[0] + "\tnan"
    table.write_text("\n".join(lines) + "\n")
    cfg_path = write_cfg(tmp_path, f"env = sequence\nd = 2\nn = 3\ntabular = on\n"
                                   "strategy = TB-U\nbatch = 16\niterations = 3\n"
                                   f"reward_table = {table}\n")
    proc = run_python(["-m", "gflow", "run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")], 1, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {table}:5: reward 'nan' is not finite\n"


@pytest.mark.parametrize("settings, message", [
    # Each reward is finite, but the 256 of them total more than float64 holds.
    ("env = grid\nd = 2\nn = 16\nr0 = 1e307\n",
     "the rewards of the 256 terminal states total more than float64 holds"),
    ("env = grid\nr0 = 1e308\nr1 = 1e308\n",
     "grid rewards r0, r0 + r1 and r0 + r1 + r2 must be positive and finite"),
    ("env = sequence\nd = 3\nn = 3\nbeta = -1000\n",
     "beta = -1000.0 overflows float64 in the synthetic reward scores"),
], ids=["grid-total", "grid-reward", "sequence-beta"])
def test_cli_rejects_rewards_that_overflow_before_training(tmp_path, settings, message):
    # A fresh process, so that any numpy warning would reach stderr.
    cfg_path = write_cfg(tmp_path, settings + "tabular = on\niterations = 3\n")
    proc = run_python(["-m", "gflow", "run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")], 1, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "strategy = nope\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown strategy" in err


@pytest.mark.parametrize("window", [0, -3])
def test_summarize_rejects_windows_below_one(tmp_path, capsys, window):
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "\n0,1.0,0.5,0.1,0.9,2,0.0\n")
    with pytest.raises(ConfigError, match="window must be at least 1"):
        summarize([p], window=window)
    assert main(["summarize", str(p), "--window", str(window)]) == 2
    assert "error: window must be at least 1" in capsys.readouterr().err


def test_cli_summarize_error_exit(tmp_path, capsys):
    p = tmp_path / "x.csv"
    p.write_text("bogus\n")
    assert main(["summarize", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["run", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(missing) in err


def test_cli_run_missing_reward_table(tmp_path, capsys):
    missing = tmp_path / "rewards.tsv"
    cfg_path = write_cfg(tmp_path, f"env = sequence\nd = 2\nn = 3\n"
                                   f"reward_table = {missing}\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(missing) in err


# Bytes that are not UTF-8 text: an ELF header, then every byte value.
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(256))


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(NOT_UTF8)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: config file is not UTF-8 text\n"


def test_cli_summarize_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_bytes(NOT_UTF8)
    assert main(["summarize", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: metrics file is not UTF-8 text\n"


def test_cli_rejects_a_reward_table_that_is_not_utf8(tmp_path, capsys):
    table = tmp_path / "rewards.tsv"
    table.write_bytes(NOT_UTF8)
    cfg_path = write_cfg(tmp_path, f"env = sequence\nd = 2\nn = 3\nreward_table = {table}\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {table}: reward table is not UTF-8 text\n"


def test_cli_summarize_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["summarize", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(missing) in err
