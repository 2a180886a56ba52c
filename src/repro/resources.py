"""Issue-port resource model shared by the compiler and the timing cores.

Models the Itanium-2-like dispersal network of the paper's machine
(Table 2: "6-issue, Itanium 2 FU distribution"): up to six instructions
issue per cycle onto M (memory), I (integer), F (floating point) and B
(branch) ports.  Memory operations need an M port; integer ALU operations
prefer an I port but can fall back to M; multiplies, divides and floating
point use F ports; branches use B ports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa.opcodes import FUClass


@dataclass(frozen=True)
class PortModel:
    """Per-cycle issue capacity."""

    width: int = 6
    m_ports: int = 4
    i_ports: int = 2
    f_ports: int = 2
    b_ports: int = 3

    def new_tracker(self) -> "PortTracker":
        return PortTracker(self)


class PortTracker:
    """Tracks one cycle's port usage; ask-then-commit interface."""

    __slots__ = ("model", "issued", "m_used", "i_used", "f_used", "b_used")

    def __init__(self, model: PortModel):
        self.model = model
        self.reset()

    def reset(self) -> None:
        self.issued = 0
        self.m_used = 0
        self.i_used = 0
        self.f_used = 0
        self.b_used = 0

    def can_issue(self, fu: FUClass) -> bool:
        """True if an instruction of class ``fu`` still fits this cycle."""
        model = self.model
        if self.issued >= model.width:
            return False
        if fu is FUClass.MEM:
            return self.m_used < model.m_ports
        if fu is FUClass.ALU:
            return (self.i_used < model.i_ports
                    or self.m_used < model.m_ports)
        if fu in (FUClass.FP, FUClass.MULDIV):
            return self.f_used < model.f_ports
        if fu is FUClass.BR:
            return self.b_used < model.b_ports
        return True  # FUClass.NONE consumes only an issue slot

    def issue(self, fu: FUClass) -> None:
        """Commit one instruction of class ``fu``; call can_issue first."""
        if not self.can_issue(fu):
            raise ValueError(f"no free port for {fu} this cycle")
        self.issued += 1
        if fu is FUClass.MEM:
            self.m_used += 1
        elif fu is FUClass.ALU:
            if self.i_used < self.model.i_ports:
                self.i_used += 1
            else:
                self.m_used += 1
        elif fu in (FUClass.FP, FUClass.MULDIV):
            self.f_used += 1
        elif fu is FUClass.BR:
            self.b_used += 1

