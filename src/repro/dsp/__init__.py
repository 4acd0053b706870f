"""Signal-processing substrate: the Morlet CWT filter bank and the
paper's 100-bin 50–5000 Hz frequency-feature extraction (Section IV-B).
"""

from repro.dsp.cache import CACHE_SCHEMA, FeatureCache
from repro.dsp.filterbank import (
    MORLET_NORM,
    MorletFilterBank,
    clear_filter_bank_cache,
    get_filter_bank,
    morlet_kernel_ft,
    validate_frequencies,
)
from repro.dsp.features import (
    DEFAULT_F_MAX,
    DEFAULT_F_MIN,
    DEFAULT_N_BINS,
    FrequencyFeatureExtractor,
    MinMaxScaler,
    log_spaced_frequencies,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_F_MAX",
    "DEFAULT_F_MIN",
    "DEFAULT_N_BINS",
    "FeatureCache",
    "FrequencyFeatureExtractor",
    "MORLET_NORM",
    "MinMaxScaler",
    "MorletFilterBank",
    "clear_filter_bank_cache",
    "get_filter_bank",
    "log_spaced_frequencies",
    "morlet_kernel_ft",
    "validate_frequencies",
]
