"""Verdict bookkeeping for the benchmark: every check a workload makes goes
through one :class:`Verdicts` object, which counts what was attempted, what
disagreed with its expected outcome, what raised, and the smallest decimal
headroom (``margin_digits``) over all checks that have one."""
import math
import traceback
from contextlib import contextmanager


class Verdicts:
    """Counts verdicts and keeps the tightest margin.

    * ``vanish``: a residual that must stay below ``tol``; headroom is
      log10(tol / residual), and a zero residual never binds.
    * ``exceed``: a magnitude that must stay above ``bound``; headroom is
      log10(value / bound).
    * ``within`` and ``expect``: window and equality checks.  They count
      toward ``failed`` but have no decimal headroom.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errored = 0
        self.margin = math.inf
        self.tightest = None
        self.failures = []

    def _record(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def _headroom(self, name, digits):
        if digits < self.margin:
            self.margin, self.tightest = digits, name

    def vanish(self, name, residual, tol):
        residual = float(residual)
        ok = residual < tol
        if ok and residual > 0.0:
            self._headroom(name, math.log10(tol / residual))
        self._record(name, ok, f"residual {residual!r} not below {tol!r}")

    def exceed(self, name, value, bound):
        value = float(value)
        ok = value > bound
        if ok:
            self._headroom(name, math.log10(value / bound))
        self._record(name, ok, f"value {value!r} not above {bound!r}")

    def within(self, name, value, lo, hi):
        value = float(value)
        self._record(name, lo < value < hi,
                     f"value {value!r} outside ({lo!r}, {hi!r})")

    def expect(self, name, got, want):
        self._record(name, got == want, f"got {got!r}, expected {want!r}")

    def report_check(self, name, value, tol, mode):
        """One check of a catalog report that must pass: ``value`` is its
        ``max_abs`` (None when evaluation raised inside ``verify_case``) and
        ``mode`` its "max" (residual) or "min" (magnitude) comparison."""
        if value is None:
            self.errored += 1
            self._record(name, False, "evaluation raised inside verify_case")
        elif mode == "max":
            self.vanish(name, value, tol)
        else:
            self.exceed(name, value, tol)

    @contextmanager
    def guard(self, name):
        """Count an exception raised while producing a verdict as one
        errored, failed verdict instead of stopping the workload."""
        try:
            yield
        except Exception:  # the workload keeps going and reports the failure
            self.errored += 1
            self._record(name, False, traceback.format_exc(limit=3))

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0
