"""Cache substrate: Auxiliary Tag Directory, MLP-ATD quantisation, UCP."""

from repro.cache.atd import ATDProfile, stack_distances, atd_profile, miss_curve_mpki
from repro.cache.ucp import ucp_lookahead

__all__ = [
    "ATDProfile",
    "stack_distances",
    "atd_profile",
    "miss_curve_mpki",
    "ucp_lookahead",
]
