"""The repository's one benchmark: seven workloads from bulk saturation to
sharded HTTP serving, end-to-end metrics with tracing off and an outside-in
per-layer trace.  See ``bench/README.md``."""
