"""Control-plane benchmark for the stream-query optimizer (see run.py)."""
