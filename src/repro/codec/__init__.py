"""Video codec substrate: H.264 rate/latency model and streaming pipeline."""
