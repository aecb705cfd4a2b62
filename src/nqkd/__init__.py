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

__version__ = "0.1.0"
