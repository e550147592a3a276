"""The benchmark's tracing must be able to patch and restore the package.

``perfbench/tracing.py`` wraps named functions and class attributes for a
traced run and puts the originals back afterwards.  It reads each class
attribute from the class's own ``__dict__``, so a refactor that moves a
patch target (``Poly.__mul__``, ``Scalar.__add__``, ``CachedAction.act``,
...) into a base class breaks traced runs.  The first test installs and
removes the instrumentation without running any work; the second runs the
benchmark's own self-test, which traces one small item of each workload.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _owners():
    from planargca import linalg, omega, poly, scalars

    return [scalars.Scalar, poly.Poly, linalg.SparseEchelon, omega.CachedAction]


def _snapshot(tracing):
    return {
        id(owner): (owner, dict(vars(owner)))
        for owner in tracing.package_modules() + _owners()
    }


def test_install_then_restore_leaves_every_attribute_original(tracing):
    # Load every module ``install`` imports, so the snapshots cover them.
    from planargca import cli, sampling, tensor, whittaker  # noqa: F401

    before = _snapshot(tracing)
    instrumentation = tracing.Instrumentation(tracing.Recorder())
    try:
        instrumentation.install()
        patched = [
            (owner, attr)
            for owner, attrs in before.values()
            for attr, value in attrs.items()
            if vars(owner).get(attr) is not value
        ]
    finally:
        instrumentation.restore()
    names = {f"{getattr(o, '__name__', o)}.{a}" for o, a in patched}
    for expected in ("Poly.__mul__", "Poly.shift", "Scalar.__add__",
                     "Scalar.__mul__", "Scalar.inverse", "CachedAction.act",
                     "SparseEchelon.insert", "SparseEchelon.contains",
                     "SparseEchelon.rows_sorted",
                     "SparseEchelon.kernel_vector_at_first_free_column"):
        assert expected in names, f"{expected} was not patched"
    after = _snapshot(tracing)
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        for attr, value in attrs.items():
            assert now[attr] is value, f"{owner}.{attr} was not restored"


def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` runs one small item of each workload traced
    and plain: the reports must match, the closure probe must not call
    ``bracket_basis``, and every patch must be restored."""
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
