"""Motion substrate: 6-DoF pose algebra and trace synthesis."""
