"""Expected-loss analysis of thresholded challenge-response authentication.

Each name is imported from the module that defines it: loss weights,
rate bounds and the decision rule from ``loss``; the closed-form design
from ``bounds``; exact tails, losses and brute force from ``exact``;
Bayes thresholds from ``asymptotic``; channel rates and Monte Carlo
from ``channel``; coded-phase noise estimation from ``noise``; seeded
sweeps and their CSV from ``experiments``; the command line from ``cli``.
"""

__version__ = "0.1.0"
