"""Monte-Carlo validation campaigns: replicated model-vs-simulation checks.

Scales the single-configuration spot check of
:mod:`repro.analysis.validation` into statistically quantified campaigns
over the whole scenario suite:

* :mod:`repro.validation.stats` — streaming Welford moments and Student-t
  confidence intervals;
* :mod:`repro.validation.campaign` — what a campaign is made of: derived
  replication seeds, the memoized replication fan-out, the aggregation and
  tolerance gates of each (scenario × protocol) cell, and the
  :class:`CampaignCell` / :class:`CampaignResult` records.  The
  ``campaign`` spec kind (:func:`repro.api.run`) is the one way to run a
  campaign: it solves every cell's game and simulates its replications
  through one batch runner;
* :mod:`repro.validation.artifacts` — versioned JSON artifact + CSV rows;
* :mod:`repro.validation.report` — ``docs/validation.md`` generator
  (``python -m repro.validation.report``).

The campaign inherits the runtime's core guarantee: a ``--workers N`` run
produces a byte-identical artifact to a serial run.
"""

from repro.simulation.runner import ReplicationMeasurement
from repro.validation.artifacts import (
    CAMPAIGN_SCHEMA,
    CAMPAIGN_SCHEMA_VERSION,
    campaign_to_json,
    load_campaign_dict,
    write_campaign,
)
from repro.validation.campaign import (
    CAMPAIGN_METRICS,
    CampaignCell,
    CampaignResult,
    MetricCheck,
    aggregate_measurements,
    campaign_rows,
    replication_seed,
)
from repro.validation.stats import MetricAggregate, StreamingMoments, student_t_critical

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CAMPAIGN_SCHEMA_VERSION",
    "CAMPAIGN_METRICS",
    "CampaignCell",
    "CampaignResult",
    "MetricAggregate",
    "MetricCheck",
    "ReplicationMeasurement",
    "StreamingMoments",
    "aggregate_measurements",
    "campaign_rows",
    "campaign_to_json",
    "load_campaign_dict",
    "replication_seed",
    "student_t_critical",
    "write_campaign",
]
