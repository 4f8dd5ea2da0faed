"""WGN-based capacity estimation and characterization of fiber-optic links.

A coherent link is probed with white Gaussian noise instead of modulated
data: the captured transmit/receive field pair yields a mutual-information
capacity estimate and, from the same equalizer covariance solved with the
roles inverted, a full linear characterization of the channel (MDL
spectra, impulse responses).
"""

# before the submodule imports: the runner records it in each manifest
__version__ = "0.1.0"

from .channel import (LinkConfig, MimoChannel, MultiSectionModel, add_awgn,
                      apply_channel, apply_frequency_offset, apply_phase_noise,
                      run_link, span_noise_power_ratio,
                      synthesize_mimo_channel)
from .config import ExperimentConfig, validate_config
from .errors import AlignmentError, ConfigError, WgnLinkError
from .estimation import (ImpulseResponse, MdlSpectrum, compare_channels,
                         estimate_channel, impulse_response_from_channel,
                         mdl_from_channel)
from .metrics import (RingConstellation, build_ring_constellation, estimate_mi,
                      estimate_mi_discrete, estimate_snr, qam16_constellation)
from .pipeline import (AlignmentResult, EqualizerState, PipelineConfig,
                       PipelineResult, align_by_crosscorrelation,
                       fde_lms_equalize, phase_recovery, run_pipeline,
                       trim_aligned)
from .runner import (characterize_captures, generate_qam16_mimo,
                     run_experiment, run_reference_16qam, write_plots)
from .signals import (ComplexSignal, MimoSignal, MimoSpectrum, generate_wgn,
                      generate_wgn_mimo, read_signal, write_signal)

__all__ = [name for name in dir() if not name.startswith("_")]
