"""Swarm-simulator benchmark (see README.md and run.py)."""
