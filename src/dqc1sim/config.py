"""Centralized numeric tolerances and size caps."""

# Entrywise tolerance on |U U+ - I| for any matrix claimed unitary.
UNITARITY_TOL = 1e-10

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PROB_SUM_TOL = 1e-10

# Below this, a postselection event counts as impossible rather than as a
# legitimate tiny probability.  Desk-scale events of interest sit far above it.
ZERO_PROB_TOL = 1e-12

# Seed used by the command line when none is given.  Fixed, never time-based.
DEFAULT_SEED = 12345

# Size caps, each read where it is checked, before anything is allocated.
# DENSITY_CAP bounds only the dense oracle: density-matrix evolution and
# everything else that builds a full 2^m x 2^m matrix.  EXACT_CAP bounds
# every pure-state route, exact distributions and sampling alike (both run
# 2^m-amplitude vectors), and the width of distribution documents.
# REPORT_CAP bounds the measured qubits of a multiplicative-error report,
# which builds all 2^k - 1 marginals.  SHOTS_CAP bounds the shots of one
# sampling run, which peaks at 32 bytes per shot (two float64 uniforms, the
# scaled draws and their int64 copy), so 2^24 shots hold 512 MiB at most.
DENSITY_CAP = 12
EXACT_CAP = 16
REPORT_CAP = 14
SHOTS_CAP = 1 << 24
