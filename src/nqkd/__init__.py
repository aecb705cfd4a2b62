"""Conference key distribution with multiparty entangled resource states.

Modules by concern:

* :mod:`nqkd.dense`    -- explicit state vectors / density matrices (the
  brute-force oracle substrate),
* :mod:`nqkd.ghz`      -- the entangled-basis diagonal family, the
  depolarisation twirl and the error-rate functionals,
* :mod:`nqkd.noise`    -- gate-failure and transmission noise, analytic
  and enumerated,
* :mod:`nqkd.keyrate`  -- secret fractions, rates and threshold solvers,
* :mod:`nqkd.protocol` -- the seeded round-by-round protocol simulation,
* :mod:`nqkd.network`  -- repetition times and hop counts computed from the
  graph by max-flow, the router fan-out verification and the protocol comparison,
* :mod:`nqkd.cli`      -- the ``nqkd`` command-line tool.
"""

from .dense import DenseState, GhzBasisIndex, ghz_basis_vector, ghz_state
from .ghz import (
    GhzDiagonalState,
    WeightClassState,
    dense_from_ghz_diagonal,
    ghz_diagonal_from_dense,
    pairwise_correlator,
    qber_pairwise,
    qber_x,
    qber_z,
    twirl_dense,
)
from .keyrate import (
    RateInput,
    RateReport,
    binary_entropy,
    nqkd_channel_threshold,
    nqkd_gate_threshold,
    rate_depolarized,
    secret_fraction,
    six_state_rate,
    threshold_qber,
    twoqkd_conference_rate,
)
from .noise import (
    ChannelNoise,
    GateNoise,
    GatePattern,
    apply_channel_noise,
    channel_qber,
    depolarized_state,
    lambda0_router,
    lambda0_star,
    qab_average,
    simulate_prep_circuit,
)
from .protocol import (
    EstimationResult,
    ProtocolConfig,
    ProtocolResult,
    RoundRecord,
    f_sign,
    run_protocol,
)
from .network import (
    NetworkModel,
    butterfly_network,
    compare_rates,
    distribute_ghz_via_router,
    router_network,
    star_network,
)

__version__ = "0.1.0"
