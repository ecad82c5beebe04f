"""Heralded entangled-photon-pair simulator and analysis toolkit."""

from .detection import (
    DetectorModel,
    HeraldedBlock,
    PairBlocks,
    herald_pair_terms,
    number_table,
    postselect_two_qubit,
)
from .elements import CircuitLayout, beam_splitter_map, build_paper_circuit, hwp_map
from .experiments import (
    ExperimentConfig,
    calibrate_tau,
    run_power_comparison,
    run_sweep,
    simulate_experiment,
)
from .fock import SparseKet, apply_mode_map, vacuum
from .metrics import chsh_max, fidelity_to_phi_plus, tangle
from .source import SpdcParams, emission_coefficients
from .tomography import (
    CountTable,
    expected_coincidences,
    ingest_counts,
    mle_reconstruct,
    monte_carlo_report,
    simulate_counts,
)

__version__ = "0.1.0"
