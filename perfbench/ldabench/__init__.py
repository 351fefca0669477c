"""The repository's benchmark: seeded train and serve workloads, outside-in layer tracing."""
