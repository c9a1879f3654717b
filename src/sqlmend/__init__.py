"""sqlmend: inspect-and-refine toolkit for agent-built SQL.

A query is drafted as a sequence of clause actions, two database-backed
tools diagnose mismatches the engine would not report, an agent loop
refines the sequence from their feedback, and an evaluation harness
scores the assembled SQL against gold queries.
"""

from .actions import (
    ActionSequence,
    ParseError,
    ParseResult,
    parse_actions,
    serialize_actions,
)
from .assembler import ConnectivePlan, assemble, predict_connectives
from .detector import ConstraintRule, DetectorFinding, detect, load_rules
from .evaluation import (
    EvalExample,
    EvalReport,
    exact_match,
    execution_accuracy,
    run_benchmark,
)
from .orchestrator import (
    AgentContext,
    AgentInterface,
    Feedback,
    HttpAgent,
    RefinementConfig,
    RefinementTrace,
    ScriptedAgent,
    run,
)
from .postprocess import extract_conditions, rewrite
from .retriever import check_condition, inspect_sequence
from .schema_catalog import (
    CellIndex,
    SchemaCatalog,
    build_cell_index,
    load_catalog,
    normalize_cell,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSequence",
    "AgentContext",
    "AgentInterface",
    "CellIndex",
    "ConnectivePlan",
    "ConstraintRule",
    "DetectorFinding",
    "EvalExample",
    "EvalReport",
    "Feedback",
    "HttpAgent",
    "ParseError",
    "ParseResult",
    "RefinementConfig",
    "RefinementTrace",
    "SchemaCatalog",
    "ScriptedAgent",
    "assemble",
    "build_cell_index",
    "check_condition",
    "detect",
    "exact_match",
    "execution_accuracy",
    "extract_conditions",
    "inspect_sequence",
    "load_catalog",
    "load_rules",
    "normalize_cell",
    "parse_actions",
    "predict_connectives",
    "rewrite",
    "run",
    "run_benchmark",
    "serialize_actions",
]
