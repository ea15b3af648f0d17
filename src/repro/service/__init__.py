"""Certification-as-a-service on top of the experiment machinery.

The paper's workflow is one-shot: every switched PI loop pays full
synthesis+validation cost from scratch. This package serves
certification requests — the workload shape of certifying fleets of
gain-scheduled controllers across operating envelopes — with two
performance layers:

* :mod:`repro.service.store` — a content-addressed certificate cache
  keyed by the journal's salted task fingerprints (LRU memory tier
  over the journal's own on-disk format). It carries the measured
  warm-over-cold speedup: a repeat request is one fingerprint plus one
  lookup;
* :mod:`repro.service.api` — the ``certify`` request API with
  single-flight dedup (identical in-flight requests coalesce to one
  computation and one journal entry) and same-shape batching (pending
  candidate screens share one compiled batched-eigh/Cholesky pass).

:mod:`repro.service.engine` holds the generic
:class:`~repro.service.engine.CampaignEngine` every experiment driver
runs its task grid through.
"""

from .api import (
    Certificate,
    CertificationService,
    CertifyBatchTask,
    CertifyTask,
)
from .engine import CampaignEngine
from .store import CertificateStore

__all__ = [
    "Certificate",
    "CertificationService",
    "CertifyTask",
    "CertifyBatchTask",
    "CertificateStore",
    "CampaignEngine",
]
