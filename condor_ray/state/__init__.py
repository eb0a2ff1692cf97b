"""The streaming join's per-partition state actor (``join_store.py``)."""
