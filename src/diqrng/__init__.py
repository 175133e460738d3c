"""Simulator and certification toolkit for an entanglement-based QRNG.

Modules:
    qmath      -- states as read-only (..., 4, 4) arrays, the one physicality
                  test, Pauli composition, projector stacks and the Born map
    source     -- HOM + quantum-eraser photon-pair source simulator
    tomography -- the tomography stage config (TomoConfig) and the
                  LS / MLE / Bayesian density-matrix estimators
    certify    -- CHSH (direct, model at settings, Horodecki bound) and
                  min-entropy
    extract    -- the byte-packed BitStream, the one 0/1 input check, and
                  bitsliced Toeplitz extraction (four-Russians tables)
    statsuite  -- the 15 SP 800-22 statistical tests, one verdict per test
    pipeline   -- config-driven end-to-end runs (dataset_A / dataset_B presets);
                  the only module that writes JSON, all of it strict
    cli        -- command-line entry points
"""

__version__ = "0.1.0"
