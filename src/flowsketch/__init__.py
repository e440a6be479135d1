"""Streaming sketches for network-flow monitoring.

The main structure clusters similar flows into per-cluster bucket
arrays and decodes by bucket averaging, making it resilient to hash
collisions; Count-Min and Count-Sketch baselines, a cuckoo membership
table, a disaggregated monitoring pipeline, and a benchmark harness
round out the package. Each name is imported from its module
(`from flowsketch.lss import LssSketch`); the package re-exports none.
"""

__version__ = "0.1.0"
