"""Fuel-optimal low-thrust collision avoidance for multiple conjunctions."""

__version__ = "0.1.0"


class CamoptError(Exception):
    """Every failure camopt reports, as one ``error:`` line and exit code 3.
    camopt itself catches only DegenerateEncounterError and SolverError."""
