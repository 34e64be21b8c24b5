"""End-to-end benchmark of the Scatter reproduction (see BASELINE.md)."""
