"""Exact growth series of weighted periodic graphs and virtually abelian groups.

The library is used through its modules (`ball`, `walks`, `decomposition`,
`series`, `vab`, `cli`); the package itself exports only the `.pg` reader.
"""

from .periodic_graph import parse_periodic_graph

__version__ = "0.1.0"
