"""The traced benchmark patches library names by lookup in the module
dictionaries (``perfbench/tracer.py``); a refactor that deletes or renames
one of them breaks the traced run, so installing the hooks is tested here."""

from pathlib import Path

import numpy as np

import mdoftwin.ukf as ukf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    predict, cholesky = ukf.predict, np.linalg.cholesky
    tracer = Tracer()
    try:
        tracer.install()
        assert ukf.predict is not predict
    finally:
        tracer.uninstall()
    assert ukf.predict is predict
    assert np.linalg.cholesky is cholesky
