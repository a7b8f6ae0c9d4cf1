"""Counting, ranking and uniform random generation over language slices."""

from .coins import FAIL, CoinSource, TapeSource, bit_size, gen_uniform, lcm_upto, outcome_law
from .describe import (
    Bound,
    Description,
    DnfFormula,
    SampleReport,
    WordLanguage,
    amplify_ras,
    amplify_urg,
    dnf_description,
    estimate_census,
    exact_count,
    product,
    sample_report,
    trial_budget,
    union,
    verify_description,
)

__version__ = "0.1.0"
