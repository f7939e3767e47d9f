"""Samplers over DAG state spaces, trained by balance losses or policy
gradients, with exact dynamic-programming evaluation at small scale.

The public surface re-exports the pieces most scripts need; the modules
group as:

- autodiff: tape-based reverse-mode gradients, MLP and table models, Adam
- envs: hyper-grid, fixed-length sequences, explicit DAGs, enumeration
- policy: masked slot policies, value estimators, checkpoints
- sampling: forward/backward rollouts, exploration mixtures, replay
- objectives: balance losses, policy-dependent step rewards, advantages
- guides: backward kernels that condition training on good endpoints
- training: per-strategy update steps and exact bound checks
- exact: dynamic-programming distributions, values, metrics
- runner / cli: config-driven experiments with CSV metrics

Importing gflow sets the OpenBLAS that numpy loaded, if any, to one
thread, whatever OPENBLAS_NUM_THREADS says.  A threaded dot or matrix
product rounds differently from a serial one, so one thread keeps every
output independent of the machine's core count; and the products here are
too small for a second thread to save time, which it then spends spinning.
Other BLAS builds are left alone.
"""

import ctypes

import numpy  # loads the BLAS library that _one_blas_thread looks up


def _one_blas_thread():
    """Set the OpenBLAS numpy loaded to one thread; without OpenBLAS, or
    without a setter symbol, do nothing."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = None, [ctypes.c_int]
                fn(1)
                return


_one_blas_thread()

from .envs import (EMPTY, DagEnv, Enumeration, ExplicitDag, HyperGrid,
                   SequenceEnv, random_dag, random_graded_dag)
from .errors import (ConfigError, ContractError, EnumerationLimit, GflowError,
                     MaskError, NumericFault, ShapeError)
from .policy import (BackwardPolicy, ForwardPolicy, LogZ, PolicySuite,
                     ScalarEstimator, UniformBackward, load_checkpoint,
                     make_suite, save_checkpoint)
from .sampling import MixtureSchedule, ReplayBuffer, Trajectory, sample_backward, sample_forward
from .guides import HyperGridGuide, SequenceGuide, TableGuide
from .training import (STRATEGIES, Trainer, TrainerConfig, actor_critic_step,
                       check_theorem_bounds, trpo_step)
from .runner import RunConfig, parse_config, run, summarize

__version__ = "0.1.0"

__all__ = [
    "EMPTY", "DagEnv", "Enumeration", "ExplicitDag", "HyperGrid",
    "SequenceEnv", "random_dag", "random_graded_dag",
    "ConfigError", "ContractError", "EnumerationLimit", "GflowError",
    "MaskError", "NumericFault", "ShapeError",
    "BackwardPolicy", "ForwardPolicy", "LogZ", "PolicySuite",
    "ScalarEstimator", "UniformBackward", "load_checkpoint", "make_suite",
    "save_checkpoint",
    "MixtureSchedule", "ReplayBuffer", "Trajectory", "sample_backward",
    "sample_forward",
    "HyperGridGuide", "SequenceGuide", "TableGuide",
    "STRATEGIES", "Trainer", "TrainerConfig", "actor_critic_step",
    "check_theorem_bounds", "trpo_step",
    "RunConfig", "parse_config", "run", "summarize",
    "__version__",
]
