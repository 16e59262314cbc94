"""Cross-checks that guard exact results raise InternalError, also under -O.

Each forcing function breaks one layer underneath a check and calls the
code that performs it.  The same functions run in a ``python -O``
subprocess, where an ``assert`` would have been dropped.  Each runs under a
time limit, so a retry loop that a broken layer keeps from finishing fails
the test instead of hanging it.
"""

import dataclasses
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import orbicert
from orbicert import certifier, constants, ffheights, lattice, orbifold, polys, weights
from orbicert.catalog import load_builtin
from orbicert.lattice import DivisorClass, InternalError, SurfaceConfig
from orbicert.positivity import Verdict, WeightedBoundary
from orbicert.quadext import QuadExt


LIMIT_S = 10


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread once seconds have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def patched(owner, name, value):
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def plane() -> SurfaceConfig:
    return SurfaceConfig.build([], [], hyperplane=True, allow_single_component=True)


def force_chi_parity():
    cfg = plane()
    with patched(lattice, "intersect", lambda d, e: 1):
        lattice.chi(cfg, DivisorClass.make(cfg, 1))


def force_sections_sign():
    cfg = plane()
    h = DivisorClass.make(cfg, 1)
    with patched(constants, "chi", lambda cfg, d: Fraction(-1)):
        constants.sections_certified(cfg, 5 * h, h)


def four_lines():
    return load_builtin("four-lines"), WeightedBoundary.make([4, 4, 4, 3])


def force_sum_parity():
    report = certifier.build_report(*four_lines())
    # an odd shift of K . D_p breaks the parity of d.(d - K) at level 1
    constants._sum_lower_fast(report, constants._dpk(report) - 1, 0, 1)


def force_report_square():
    # S = h^2 gives D_p^2 = 0 beside a certified ample D_p
    sums = certifier._sums

    def square_s(cfg, weights):
        a, h, _ = sums(cfg, weights)
        return a, h, h * h

    with patched(certifier, "_sums", square_s):
        certifier.build_report(*four_lines())


def force_subspace_basis(count=2):
    # the second basis, which is the one at the last place, loses the first
    # vector it is given; with one place the first basis is the pass in the
    # family's own order
    places = [ffheights.Place.finite([0, 1]), ffheights.Place.infinite()][:count]
    x = ffheights.RatMap.make([[1], [0, 1], [0, 0, 1]])
    x.nondegenerate  # proved and kept before the patch, so it builds no basis
    hyperplanes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    insert, bases = ffheights._insert, []

    def drop_first_of_second_basis(echelon, vec):
        if not any(echelon is seen for seen in bases):
            bases.append(echelon)
            if len(bases) == 2:
                return False
        return insert(echelon, vec)

    with patched(ffheights, "_insert", drop_first_of_second_basis):
        ffheights.subspace_inequality(x, hyperplanes, places)


def force_gcd_cofactor():
    # the common factor t + 1 of both coordinates fails to divide them;
    # gcd_poly proves its result without exact_quotient, so it still ends
    with patched(polys, "exact_quotient", lambda a, p: None):
        ffheights.RatMap.make([[1, 1], [2, 2]])


def force_twist_threshold():
    cfg, wb = four_lines()
    # the bounds still give m = 34, but m = 33 now passes as well
    with patched(orbifold, "ample_class_sufficient", lambda cfg, d: Verdict(True)):
        orbifold.ample_twist_threshold(cfg, wb, 100, (orbifold.INF,) * 4)


def force_search_admits_failing():
    # build_report rejects (4, 4, 4, 3), which the kernel admits
    build = weights.build_report

    def rejecting(cfg, wb):
        return dataclasses.replace(build(cfg, wb), passes=False)

    with patched(weights, "build_report", rejecting):
        weights.search_weights(load_builtin("four-lines"), 4)


def force_search_interval_ends():
    # every bisection probe passes, so each interval runs from 1 to the bound
    # and build_report refuses its ends
    with patched(weights, "_component_holds", lambda h, s, a, paired: True):
        weights.search_weights(load_builtin("four-lines"), 4)


def force_search_interval_outside():
    # each interval loses its last t, which passes checklist_holds just
    # outside what is left
    passing = weights._passing
    with patched(weights, "_passing", lambda *args: passing(*args)[:-1]):
        weights.search_weights(load_builtin("four-lines"), 12)


def force_report_slack():
    # a passing report whose least margin is 0
    with patched(certifier, "weight_slack", lambda report: (QuadExt(0), Fraction(0))):
        certifier.certify(*four_lines())


FORCED = {
    "gcd-cofactor": force_gcd_cofactor,
    "chi-parity": force_chi_parity,
    "report-slack": force_report_slack,
    "report-square": force_report_square,
    "search-admits-failing": force_search_admits_failing,
    "search-interval-ends": force_search_interval_ends,
    "search-interval-outside": force_search_interval_outside,
    "sections-sign": force_sections_sign,
    "sum-parity": force_sum_parity,
    "subspace-basis": force_subspace_basis,
    "subspace-basis-one-place": partial(force_subspace_basis, 1),
    "twist-threshold": force_twist_threshold,
}


@pytest.mark.parametrize("name", sorted(FORCED))
def test_forced_check_raises_internal_error(name):
    with time_limit(LIMIT_S), pytest.raises(InternalError):
        FORCED[name]()


OPTIMIZED = """
import sys
import test_internal_checks as t
from orbicert.lattice import InternalError

assert sys.flags.optimize
for name, force in sorted(t.FORCED.items()):
    try:
        with t.time_limit(t.LIMIT_S):
            force()
    except InternalError:
        print(name, "raised")
    except TimeoutError:
        print(name, "timed out")
    else:
        print(name, "passed silently")
"""


def test_forced_checks_survive_python_dash_o():
    src = Path(orbicert.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": f"{src}:{tests}", "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{name} raised" for name in sorted(FORCED)]
