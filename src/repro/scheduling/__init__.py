"""Workload partitioning across GPUs (Section III of the paper).

The flattened thread grid has an exponentially skewed per-thread workload
(Fig. 2): under the 2x2 scheme thread workloads range from ``C(G-2, 2)``
down to 0, and under the 3x1 scheme from ``G-3`` down to 0.  Equal-size
partitions of the thread range (*equi-distance*, ED) therefore give the
first GPUs far more work than the last (Fig. 3a).  The *equi-area* (EA)
scheduler instead cuts the thread range so the summed workload of every
partition is (nearly) equal, and does so in O(G) by walking the G discrete
workload levels rather than the ``C(G, 3)`` individual threads.
"""

from repro.scheduling.schemes import Scheme, SCHEME_1X3, SCHEME_2X2, SCHEME_3X1
from repro.scheduling.workload import (
    cumulative_work_before,
    level_work,
    thread_work_array,
    total_threads,
    total_work,
    work_prefix_by_level,
)
from repro.scheduling.schedule import Schedule
from repro.scheduling.equidistance import equidistance_schedule
from repro.scheduling.equiarea import (
    equiarea_range_boundaries,
    equiarea_schedule,
    equiarea_schedule_naive,
    lambda_cut_for_work,
)
from repro.scheduling.costaware import (
    ThreadCostModel,
    costaware_schedule,
    latency_aware_schedule,
)
from repro.scheduling.interleaved import InterleavedSchedule, interleaved_schedule

__all__ = [
    "lambda_cut_for_work",
    "ThreadCostModel",
    "costaware_schedule",
    "latency_aware_schedule",
    "InterleavedSchedule",
    "interleaved_schedule",
    "Scheme",
    "SCHEME_1X3",
    "SCHEME_2X2",
    "SCHEME_3X1",
    "Schedule",
    "cumulative_work_before",
    "thread_work_array",
    "level_work",
    "total_threads",
    "total_work",
    "work_prefix_by_level",
    "equidistance_schedule",
    "equiarea_schedule",
    "equiarea_schedule_naive",
    "equiarea_range_boundaries",
]
