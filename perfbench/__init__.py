"""The repository's benchmark: four workloads against the library's
default configuration, end-to-end metrics and per-layer traces.  See
``perfbench/README.md``; run it with ``python3 perfbench/run.py``."""
