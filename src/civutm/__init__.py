"""Turing machines realized inside abstracted strategy-game mechanics.

The package has three legs: a reference machine interpreter (`tm`), a
deterministic simulator of the game worlds that host the constructions
(`world` + `codec` + `controller`), and a lockstep verifier proving the two
execute the same computation (`harness`). The `cli` module exposes all of it
as the `civutm` command.
"""

__version__ = "0.1.0"
