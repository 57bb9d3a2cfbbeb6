"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch the whole family with a single ``except`` clause while the
sub-classes keep error reporting precise (configuration vs. model-domain vs.
infeasibility problems).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A model or simulation was configured with inconsistent parameters.

    Examples: a voltage range whose minimum exceeds its maximum, a server
    specification with zero cores, or a trace generator asked for a negative
    number of VMs.
    """


class DomainError(ReproError):
    """A numeric input falls outside the validity domain of a model.

    Examples: asking the FD-SOI voltage/frequency curve for the voltage of a
    frequency above the technology maximum, or a utilization percentage
    outside ``[0, 100]``.
    """


class InfeasibleError(ReproError):
    """A requested operating point or allocation cannot be satisfied.

    Examples: a data-center utilization that cannot be served by the
    available servers at any frequency, or a VM whose footprint exceeds an
    empty server's capacity.
    """


class CalibrationError(ReproError):
    """Calibration against published anchors failed to produce a solution.

    Raised when the anchor equations are mutually inconsistent (which would
    indicate a typo in :mod:`repro.experiments.anchors`) or produce
    non-physical parameters such as negative instruction counts.
    """


class ForecastError(ReproError):
    """A time-series model could not be fitted or used for prediction.

    Examples: fitting an ARIMA model on a series shorter than the seasonal
    period, or requesting a forecast horizon of zero samples.
    """


class CollectorTimeoutError(ReproError):
    """A telemetry collector did not answer a poll in time.

    Raised by :meth:`repro.cloud.telemetry.TraceCollector.poll` (and any
    other :class:`repro.serve.adapters.CollectorAdapter`) while the
    collector sits inside a dropout window.  Callers are expected to retry
    with bounded backoff (:func:`repro.serve.adapters.poll_with_retry`)
    and, when the collector stays dark, degrade to stale data instead of
    crashing the run.
    """


class CheckpointError(ReproError):
    """A run checkpoint cannot be read, or does not fit the run resuming it.

    Raised by
    :meth:`repro.cloud.streaming.StreamingCloudSimulation.restore` for a
    missing, truncated or corrupted file, an unknown format version, an
    old pickle checkpoint, or a snapshot taken under a different engine
    configuration.  The message names the checkpoint's side and the
    resuming run's side.
    """
