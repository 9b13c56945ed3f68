"""Helpers the tests share for the package's records (``obsforge.report.Record``)
and for the state record of a batch run."""

import numpy as np

from obsforge import sim


def replace(record, **changes):
    """A record of ``record``'s class with its fields, ``changes`` applied.

    The copy is built through the class's ``__init__``, so its
    ``__post_init__`` checks the new values as it checks any construction.
    """
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def batch_record(closed_loop, design, obs, z0_batch, zhat0_batch, **steps):
    """``sim.integrate_batch`` with a fold that keeps every record, as the
    record fold of ``sim.integrate`` does.

    Returns (z, z_hat, blowup_times): z and z_hat have shape (n_records,
    n_samples, n), NaN in the rows of a sample after its divergence.
    """
    records = []

    def fold(rec, S):
        assert rec == len(records)
        records.append(S.T.copy())

    blowup = sim.integrate_batch(closed_loop, design, obs, z0_batch, zhat0_batch, fold, **steps)
    states = np.stack(records)
    n = closed_loop.n
    return states[:, :, :n], states[:, :, n:], blowup
