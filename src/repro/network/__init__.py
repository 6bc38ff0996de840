"""Network substrate: condition presets, time-varying profiles, channel."""
