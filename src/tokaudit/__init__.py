"""Sequential auditing of pay-per-token text providers for over-reporting.

The package pairs a seeded toy autoregressive model with an anytime-valid
sequential test: an unbiased randomized-truncation estimator of the
conditional expected tokenization length of each reported string, a
multiplicative wealth process over the resulting evidence, reporting
policies to defend against, exact brute-force references, and a CLI
harness for replication studies.
"""

from .audit import (
    AnomalyRecord,
    AuditOutcome,
    CalibrationResult,
    EvidenceMoments,
    EvidenceRecord,
    LambdaSchedule,
    Trajectory,
    WealthState,
    calibration_report,
    detection_time_bound,
    evidence_moments,
    run_audit,
    update_wealth,
)
from .errors import (
    ConditionsViolated,
    DomainError,
    InputError,
    InvariantViolation,
    ResourceLimitError,
    TokenAuditError,
)
from .estimator import (
    LengthEstimate,
    TruncationDist,
    estimate_length,
    weighted_running_mean,
)
from .harness import (
    PromptCorpus,
    ReplicationSummary,
    RunConfig,
    load_config,
    load_corpus,
    load_vocabulary,
    run_replications,
)
from .oracle import (
    EnumeratedDistribution,
    conditional_expected_length,
    conditional_expected_lengths,
    enumerate_output_distribution,
    exact_intensity,
)
from .policies import (
    PolicySpec,
    apply_policy,
    expected_extra_tokens,
    heuristic_split_policy,
    random_split_policy,
    top_p_set,
)
from .tokenspace import (
    TokenSeq,
    Vocabulary,
    count_tokenizations,
    enumerate_tokenizations,
    min_tokens_to_complete,
    pair_splits,
    str_of,
    valid_splits,
)
from .toymodel import (
    ConstrainedSample,
    ConstrainedSampler,
    ModelSpec,
    masked_path_log_prob,
    next_token_dist,
    next_token_log_probs,
    sample_constrained,
    sample_sequence,
    sequence_log_prob,
)

__version__ = "0.1.0"
