"""Spans around the program's public functions, recorded from outside.

With tracing on, ``Tracer.wrap`` replaces a function or method by one that
records a span (name, start, end, parent span, op id) around each call;
nothing under ``src/`` is edited. Spans stay in memory and are written
out when the run ends. A span's self time is its duration minus the time
its children cover (calls are nested and run in one thread, so children
never overlap).
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

SETUP = "setup"  # op id of spans recorded during set-up


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = None  # op id given to new spans; None records nothing
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if self.op is None:
                return orig(*args, **kwargs)
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(i)
        try:
            yield
        finally:
            self.spans[i][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- aggregation ----------------------------------------------------
    def totals(self, scale: dict) -> tuple[dict, dict, dict]:
        """Per span name over spans of the ops in ``scale``: total duration
        (each op's spans times its scale), call count and total self time;
        also keyed "parent>child"."""
        dur: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        selft: dict[str, float] = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in scale:
                continue
            d = (end - start) * scale[op]
            dur[name] += d
            calls[name] += 1
            selft[name] += d - child_time[i] * scale[op]
            if parent is not None:
                key = f"{self.spans[parent][0]}>{name}"
                dur[key] += d
                calls[key] += 1
        return dur, calls, selft

    def dump(self, path: str, env: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"env": env, "counters": self.counters}) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")


def spark_counts(sc, group: str) -> dict[str, int]:
    """Jobs, stages that ran, tasks and failed tasks of one job group.

    Read only after the listener bus has delivered every event, so the
    status tracker has seen each job and task end."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st = sc.statusTracker()
    out = {"jobs": 0, "stages": 0, "tasks": 0, "tasks_failed": 0}
    for job in st.getJobIdsForGroup(group):
        out["jobs"] += 1
        info = st.getJobInfo(job)
        for stage in info.stageIds if info else ():
            s = st.getStageInfo(stage)
            ran = s.numCompletedTasks + s.numFailedTasks if s else 0
            if ran:
                out["stages"] += 1
                out["tasks"] += ran
                out["tasks_failed"] += s.numFailedTasks
    return out
