"""condor_ray — a Ray-Data-native synopsis-based streaming engine.

From-scratch re-expression of TU-Berlin-DIMA/Condor (PVLDB 14(10), 2021) on
Ray Data: windowed approximate synopses (sketches, samplers, histograms,
wavelets) over Parquet streams of conversation transcripts, built as
``map_batches`` over zero-copy Arrow batches and, streaming, as tasks over
slice state held in Ray's object store, plus query evaluation as
broadcast / as-of joins.

This package never calls ``ray.init``/``ray.shutdown`` — sessions are owned
by the driver, bench.py, or the test fixture.
"""

__version__ = "0.1.0"
