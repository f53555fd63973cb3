"""End-to-end benchmark of the repro pipeline (see README.md here)."""
