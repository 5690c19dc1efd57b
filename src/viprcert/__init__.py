"""Skeptical verifier for VIPR 1.0 certificates of MILP results.

The package root exports nothing: import from the module that defines a
name (`parser`, `checker`, `smtgen`, `smteval`, ...), so a solver child
that runs `python -m viprcert.smteval` loads only what it uses.
"""

__version__ = "0.1.0"
