"""Every ``jobs/*.py`` entry point imports cleanly.

The jobs are run by hand, not by the test suite, so a ``repro`` name they
import could vanish unnoticed. Importing each module (without calling
``main()``) catches that in milliseconds.
"""
import importlib.util
import pathlib
import sys

import pytest

JOBS = sorted((pathlib.Path(__file__).resolve().parent.parent / "jobs").glob("*.py"))


def test_jobs_found():
    assert {p.stem for p in JOBS} >= {"_session", "runtime", "table1"}


@pytest.mark.parametrize("path", JOBS, ids=[p.stem for p in JOBS])
def test_job_imports(path, monkeypatch):
    # the Spark jobs put their own directory on sys.path for ``_session``
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"jobs_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert path.stem == "_session" or callable(module.main)
