"""Benchmark of ruledsurf: workloads, reference computations, tracing and reports."""
