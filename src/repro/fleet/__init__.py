"""repro.fleet — distributed sweep fleet (broker, workers, campaigns).

Generalizes the single-host :class:`~repro.exec.runner.PoolRunner` to
many hosts: a lease-based work-queue broker hands
:class:`~repro.exec.spec.TaskSpec`\\ s to workers over HTTP, workers
settle results through the content-addressed SimResult cache, and the
campaign driver searches config space via successive halving over
whichever executor (local pool or fleet) is available.
"""

from repro.fleet.broker import BrokerApp, BrokerMetrics, FleetBroker, run_broker
from repro.fleet.campaign import (Campaign, CampaignFailed, CampaignResult,
                                  Candidate, parse_search, run_campaign)
from repro.fleet.client import FleetClient, FleetError
from repro.fleet.worker import BrokerGone, FleetWorker, run_worker

__all__ = [
    "BrokerApp", "BrokerGone", "BrokerMetrics", "Campaign", "CampaignFailed",
    "CampaignResult", "Candidate", "FleetBroker", "FleetClient",
    "FleetError", "FleetWorker", "parse_search", "run_broker",
    "run_campaign", "run_worker",
]
