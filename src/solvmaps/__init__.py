"""Solvable two-variable discrete-time dynamical systems.

Step maps, closed-form initial-value solvers, and a numerical verification
harness for the families of algebraically solvable two-variable recursions
built on polynomial zero/coefficient bridges.
"""

__version__ = "0.1.0"
