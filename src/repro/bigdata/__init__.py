"""Secure big-data processing components (paper Section III-B, layer 3).

"Examples of developed components are secure structured data stores,
map/reduce based computations, schedulers, as well as components for
efficient transmission of large amounts of data."

- :mod:`~repro.bigdata.kvstore` -- a secure structured store over the
  SCONE file-system shield.
- :mod:`~repro.bigdata.mapreduce` -- map/reduce whose mappers and
  reducers run in enclaves; intermediate data is sealed end-to-end.
- :mod:`~repro.bigdata.transfer` -- efficient bulk transmission:
  chunking, compression, batching, encryption, with a simulated
  network.

(The scheduler component is :mod:`repro.genpack`.)
"""

from repro.bigdata.kvstore import SecureTable
from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce, plain_mapreduce
from repro.bigdata.query import SecureRecordStore
from repro.bigdata.streaming import SlidingWindow, TumblingWindow
from repro.bigdata.transfer import BulkTransfer, SimulatedNetwork, TransferStats

__all__ = [
    "BulkTransfer",
    "MapReduceJob",
    "SecureMapReduce",
    "SecureRecordStore",
    "SecureTable",
    "SimulatedNetwork",
    "SlidingWindow",
    "TransferStats",
    "TumblingWindow",
    "plain_mapreduce",
]
