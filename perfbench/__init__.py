"""Benchmark of the prenex package: seeded workloads, answer checks, spans."""
