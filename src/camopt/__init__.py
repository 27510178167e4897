"""Fuel-optimal low-thrust collision avoidance for multiple conjunctions."""

__version__ = "0.1.0"


class CamoptError(Exception):
    """Base class of every error camopt raises on purpose."""
