"""Pipeline simulation: DES scheduler, system designs, metrics, batch runner."""
