"""Self-complementary ideals of chain products.

Enumeration of the self-complementary (sc), cyclically symmetric (cssc)
and totally symmetric (tssc) ideal classes, exact flip-graph metrics,
the extremal constructions behind them, and verification suites that
re-check every statement at desk scale.  The names live in the
submodules (`poset`, `ideal`, `enumeration`, `metric`, `constructions`,
`chvatal`, `verify`); importing the package loads none of them.
"""

__version__ = "0.1.0"
