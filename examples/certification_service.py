"""Certification as a service: cache, dedup, batching, persistence.

Certifies a small fleet of gain-scheduled PI loops (the paper's Eq.
18-22 closed-loop interconnection under a grid of gains) through one
`CertificationService`, showing each performance layer:

1. cold requests — full synthesis + exact validation per distinct spec;
2. repeat requests — served from the content-addressed certificate
   store (salted task fingerprints; identical spec = identical key);
3. a batched pass — all pending LMI candidate screens resolved through
   one compiled batched-eigh call, bit-identical to the direct path;
4. a persistent store — the cache written as a journal file another
   service instance (or a later run) reads back.

Run:  python examples/certification_service.py
"""

import pathlib
import tempfile

import repro
from repro.service import CertificateStore, CertificationService


def gain_grid():
    """A small gain-schedule sweep around the mode-0 operating point."""
    case = repro.case_by_name("size3")
    plant = case.plant
    for kp_scale in (0.8, 1.0, 1.2):
        for ki_scale in (0.9, 1.1):
            from repro.engine import mode_gains

            base = mode_gains(0)
            yield plant, base.kp * kp_scale, base.ki * ki_scale


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_path = pathlib.Path(tmp) / "certificates.jsonl"

        # -- cold + cached + batched -----------------------------------
        with CertificationService(
            store=CertificateStore(store_path), sigfigs=8
        ) as service:
            requests = [
                service.request(
                    plant.a, plant.b, plant.c, gains=(kp, ki),
                    method="lmi", backend="ipm",
                )
                for plant, kp, ki in gain_grid()
            ]
            certificates = service.certify_many(requests)
            stable = sum(1 for c in certificates if c.valid)
            print(f"[1] batched cold pass: {len(certificates)} gain pairs, "
                  f"{stable} certified stable "
                  f"(one compiled screen, {service.computations} syntheses)")

            repeat = service.certify(requests[0])
            assert repeat.identity() == certificates[0].identity()
            print(f"[2] repeat request: cache hit "
                  f"(hit rate {service.store.hit_rate:.0%}, "
                  f"computations still {service.computations})")

        # -- persistence: a fresh service reads the same store file ----
        with CertificationService(
            store=CertificateStore(store_path), sigfigs=8
        ) as revived:
            again = revived.certify(requests[0])
            assert again.identity() == certificates[0].identity()
            assert revived.computations == 0
            print(f"[3] persistent store: fresh service answered from "
                  f"disk ({revived.store.disk_hits} disk hit, "
                  f"0 recomputations)")

    print("\n==> fleet certified; every layer returned bit-identical "
          "certificates.")


if __name__ == "__main__":
    main()
