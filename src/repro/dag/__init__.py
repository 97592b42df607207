"""Task-DAG substrate: tasks, graphs, features, generators and I/O.

This package models the jobs scheduled by Spear: directed acyclic graphs
whose nodes are tasks with an integer runtime and a multi-dimensional
resource demand (Sec. II-C of the paper).
"""

from .task import Task
from .graph import TaskGraph
from .features import GraphFeatures, compute_features
from .generators import random_layered_dag, random_layered_dags, chain_dag, fork_join_dag, independent_tasks_dag
from .mapreduce import mapreduce_dag
from .examples import motivating_example
from .io import graph_to_dict, graph_from_dict, save_graph, load_graph
from .compose import disjoint_union, serialize_jobs, with_barrier_task
from .analysis import GraphSummary, summarize, makespan_lower_bound
from .suites import gaussian_elimination_dag, fft_dag, stencil_dag, cholesky_dag

__all__ = [
    "Task",
    "TaskGraph",
    "GraphFeatures",
    "compute_features",
    "random_layered_dag",
    "random_layered_dags",
    "chain_dag",
    "fork_join_dag",
    "independent_tasks_dag",
    "mapreduce_dag",
    "motivating_example",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "disjoint_union",
    "serialize_jobs",
    "with_barrier_task",
    "GraphSummary",
    "summarize",
    "makespan_lower_bound",
    "gaussian_elimination_dag",
    "fft_dag",
    "stencil_dag",
    "cholesky_dag",
]
