"""Energy substrate: component power models, McPAT overheads, accounting."""
