from .base import DagEnv, Enumeration, ENUMERATION_CAP, MIN_REWARD
from .explicit import ExplicitDag, random_dag, random_graded_dag
from .grid import HyperGrid
from .sequence import (EMPTY, SequenceEnv, all_sequences, load_reward_table,
                       save_reward_table, synthetic_rewards)

__all__ = [
    "DagEnv", "Enumeration", "ENUMERATION_CAP", "MIN_REWARD",
    "ExplicitDag", "random_dag", "random_graded_dag", "HyperGrid", "EMPTY",
    "SequenceEnv", "all_sequences", "load_reward_table", "save_reward_table",
    "synthetic_rewards",
]
