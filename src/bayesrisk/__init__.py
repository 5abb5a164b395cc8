"""Cost-sensitive plug-in Bayes classification on finite discrete domains.

Build classifiers and stochastic rules from class priors and per-class
distributions, compute their exact risks, verify the L1 and KL excess
risk bounds empirically, reproduce the matching two-atom lower bounds,
smooth L1-accurate estimates into KL-accurate ones, and generate string
distributions from quantized PDFAs.
"""

from types import ModuleType as _ModuleType

from .distributions import (
    Distribution,
    Domain,
    QuantizedClassSpec,
    kl_divergence,
    l1_distance,
    make_distribution,
    mixture,
    random_quantized,
    sample,
)
from .classify import (
    Classifier,
    CostMatrix,
    LabeledSource,
    StochasticRule,
    bayes_classifier,
    logloss_risk,
    plugin_rule,
    posterior,
    posterior_rule,
    risk,
)
from .bounds import (
    BoundReport,
    PerturbationBudget,
    TightnessResult,
    check_theorem1,
    check_theorem2,
    example1_construction,
    example2_construction,
    excess_logloss_identity,
    random_l1_perturbation,
    theorem1_bound,
    theorem2_bound,
    tightness_search,
)
from .smoothing import (
    BaseDistribution,
    SmoothingParams,
    SmoothingReport,
    base_mixture,
    kl_certificate,
    kl_certificate_from_floor,
    smooth,
    verify_smoothing,
)
from .pdfa import (
    Pdfa,
    TruncatedStringDomain,
    decode,
    encode,
    encoding_length,
    sample_string,
    string_probability,
    truncate,
)
from .pipeline import (
    ExperimentSummary,
    TrialConfig,
    TrialOutcome,
    empirical_estimator,
    run_pac_experiment,
    run_trial,
)

__version__ = "0.1.0"

# Every public name imported above, and the version.
__all__ = [
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
]
__all__.append("__version__")
