"""fabric: a standoff-annotation corpus engine.

Annotation graphs over an immutable primary text compile into a binary
image that loads into memory as columnar numpy views; a topographic query
language searches it; saved queries persist as passage-anchored annotations.
"""

from .annotations import (
    AnnotationStore,
    ResultPage,
    SavedQuery,
    export_store,
    import_store,
    margin,
    result_page,
    save_query,
)
from .compiler import CompileSummary, compile_corpus, compile_to_bytes, verify_image
from .corpus import Corpus, FeatureStore
from .errors import (
    FabricError,
    ImageError,
    IngestError,
    OracleGuardError,
    QueryError,
    QuerySyntaxError,
    StoreError,
    ValidationFailure,
)
from .featuredoc import FrequencyTable, feature_frequency, render_docs
from .ingest import (
    IngestWarning,
    ValidationIssue,
    ValidationReport,
    parse_graf,
    parse_tabular,
    validate,
)
from .model import (
    CorpusMetadata,
    CorpusStats,
    Edge,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
    adjacent,
    canonical_compare,
    embeds,
    sequence_before,
)
from .query import (
    MatchTree,
    QueryPlan,
    ResultSet,
    brute_force_evaluate,
    evaluate,
    explain,
    iter_matches,
    parse,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationStore",
    "CompileSummary",
    "Corpus",
    "CorpusMetadata",
    "CorpusStats",
    "Edge",
    "FabricError",
    "FeatureAssignment",
    "FeatureStore",
    "FrequencyTable",
    "ImageError",
    "IngestError",
    "IngestWarning",
    "LogicalCorpus",
    "MatchTree",
    "MonadSet",
    "Node",
    "OracleGuardError",
    "QueryError",
    "QueryPlan",
    "QuerySyntaxError",
    "Region",
    "ResultPage",
    "ResultSet",
    "SavedQuery",
    "StoreError",
    "ValidationFailure",
    "ValidationIssue",
    "ValidationReport",
    "adjacent",
    "brute_force_evaluate",
    "canonical_compare",
    "compile_corpus",
    "compile_to_bytes",
    "embeds",
    "evaluate",
    "explain",
    "export_store",
    "feature_frequency",
    "import_store",
    "iter_matches",
    "margin",
    "parse",
    "parse_graf",
    "parse_tabular",
    "render_docs",
    "result_page",
    "save_query",
    "sequence_before",
    "validate",
    "verify_image",
]
