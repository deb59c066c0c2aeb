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
from .syntax import BlockString, Query, parse


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


def explain(corpus: Corpus, query: Query | str) -> QueryPlan:
    """Describe the evaluation plan for a query on this corpus."""
    q = parse(query) if isinstance(query, str) else query
    ev = _Eval(corpus, q)
    steps: list[PlanStep] = []
    nested = False

    def fmt_value(operand) -> str:
        if isinstance(operand, tuple):
            return "(" + ", ".join(f'"{m}"' for m in operand) + ")"
        return f'"{operand}"'

    def walk(bs: BlockString, depth: int) -> None:
        nonlocal nested
        for block in bs.blocks:
            source = ev.source_for(block)
            if source.kind == "posting":
                description = f"dictionary lookup {source.key}→{fmt_value(source.operand)}"
            else:
                description = "otype scan"
            steps.append(
                PlanStep(depth=depth, otype=block.otype, description=description, estimate=source.estimate)
            )
            if block.children is not None:
                nested = True
                walk(block.children, depth + 1)

    walk(q.root, 0)
    return QueryPlan(steps=tuple(steps), nested=nested)
