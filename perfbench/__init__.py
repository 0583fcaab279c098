"""corrsense benchmark: workloads, checks and per-layer tracing (see BASELINE.md)."""
