"""Query plans: a human-readable account of how evaluation will proceed.

The plan reports, per block, the candidate source the evaluator actually
chooses (full otype scan, or a dictionary posting list when an equality
atom offers a rarer start) with estimated candidate counts, and the join
strategy (a batched containment semi-join for nested blocks, then gap
filtering).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import Corpus
from .evaluator import _Eval
from .syntax import Query, quote_string


@dataclass(frozen=True, slots=True)
class PlanStep:
    depth: int
    otype: str
    description: str
    estimate: int


@dataclass(frozen=True, slots=True)
class QueryPlan:
    steps: tuple[PlanStep, ...]
    nested: bool

    def render(self) -> str:
        lines = []
        for step in self.steps:
            indent = "  " * step.depth
            noun = "candidate" if step.estimate == 1 else "candidates"
            lines.append(f"{indent}[{step.otype}] {step.description}, {step.estimate} {noun}")
        lines.append(
            "join: batched containment semi-join, then gap filtering"
            if self.nested
            else "join: gap filtering over the block chain"
        )
        return "\n".join(lines)


def _fmt_value(operand) -> str:
    if isinstance(operand, tuple):
        return "(" + ", ".join(map(quote_string, operand)) + ")"
    return quote_string(str(operand))


def explain(corpus: Corpus, query: Query | str) -> QueryPlan:
    """Describe the evaluation plan for a query on this corpus: one step
    per block, in the match table's column order."""
    ev = _Eval(corpus, query)
    steps = []
    for p, source in zip(ev.blocks, ev.sources):
        if source.kind == "posting":
            description = f"dictionary lookup {source.atom.key}→{_fmt_value(source.atom.operand)}"
        else:
            description = "otype scan"
        steps.append(PlanStep(depth=p.depth, otype=p.block.otype, description=description, estimate=source.estimate))
    return QueryPlan(steps=tuple(steps), nested=any(p.parent is not None for p in ev.blocks))
