"""The repository benchmark: end-to-end host metrics and per-layer
attribution for the DDP simulator (see ``perfbench/README.md``)."""
