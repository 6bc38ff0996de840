"""Workload substrate: Table 3 games, Table 1 tethered apps, scene dynamics."""
