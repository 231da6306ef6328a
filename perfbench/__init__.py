"""Time-to-verdict benchmark of reachsep; see README.md in this directory."""
