"""OMNI: the Operations Monitoring and Notification Infrastructure.

Paper §III.C: OMNI is NERSC's data warehouse — "a single location for
storing the heterogeneous datasets", ingesting "up to 400,000 messages
per second", keeping "up to two years of operational data ... immediately
available and more can be restored".  HPE keeps event data no more than
two months, which is exactly why OMNI streams and retains everything.

* :mod:`repro.omni.warehouse` — facade over the Loki and TSDB stores with
  ingest accounting;
* :mod:`repro.omni.lifecycle` — the one retention path: the two-year hot
  window, an archive of ``Chunk`` objects read through a store-gateway,
  metric downsampling and topic expiry, in one scheduled sweep.
"""

from repro.omni.warehouse import OmniWarehouse
from repro.omni.lifecycle import Lifecycle

__all__ = ["OmniWarehouse", "Lifecycle"]
