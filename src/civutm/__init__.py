"""Turing machines realized inside abstracted strategy-game mechanics.

The package has three legs: a reference machine interpreter (`tm`), a
deterministic simulator of the game worlds that host the constructions
(`world` + `codec` + `controller`), and a lockstep verifier proving the two
execute the same computation (`harness`). The `cli` module exposes all of it
as the `civutm` command.
"""

from .codec import decode, encode_tape, symbol_map
from .controller import (
    CommandMacro,
    ControllerProgram,
    compile_program,
    execute_instruction,
    extend_tape,
)
from .harness import LockstepReport, OverheadReport, lockstep_verify, overhead_report, random_tm
from .tm import TMConfig, TMSpec, builtin_program, run, validate_spec
from .world import RulesetParams, WorldState, advance_turn, apply_command, init_world, yields

__version__ = "0.1.0"

__all__ = [
    "CommandMacro",
    "ControllerProgram",
    "LockstepReport",
    "OverheadReport",
    "RulesetParams",
    "TMConfig",
    "TMSpec",
    "WorldState",
    "advance_turn",
    "apply_command",
    "builtin_program",
    "compile_program",
    "decode",
    "encode_tape",
    "execute_instruction",
    "extend_tape",
    "init_world",
    "lockstep_verify",
    "overhead_report",
    "random_tm",
    "run",
    "symbol_map",
    "validate_spec",
    "yields",
]
