"""GPU timing substrate: mobile SoC GPU and remote multi-GPU server models."""
