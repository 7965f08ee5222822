import os
import sys

# one BLAS thread: the suite's matrices are small, and a thread pool costs
# more than it gains on them.  numpy is not loaded yet, so this takes effect;
# subprocess tests that need another count set OPENBLAS_NUM_THREADS themselves
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance criteria pass/fail lines outside capture."""
    try:
        from test_acceptance import ANNOUNCEMENTS
    except ImportError:
        return
    if ANNOUNCEMENTS:
        terminalreporter.section("acceptance criteria")
        for line in ANNOUNCEMENTS:
            terminalreporter.write_line(line)
