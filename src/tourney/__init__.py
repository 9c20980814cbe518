"""Design toolkit for rank-order tournaments with a minimum performance standard.

Compute equilibria and optimal standards for rank-order tournaments with
additive noise, design optimal prize schedules, verify everything against
Monte-Carlo brute force, bound what cardinal pay schemes could achieve, and
map the results onto Tullock contests, innovation contests, and patent
races.  The package exports nothing itself; import its modules, such as
``tourney.equilibrium``, directly.
"""

__version__ = "0.1.0"
