"""In-memory layer tracing of the reeb_atlas modules, installed from outside.

Spans wrap the module-level functions at layer boundaries; counters wrap the
hot functions called about 10^4 times or more per session (kernels, StarForm
methods, ``xi_frame``, ``reeb_vector``, ``project_to_sigma``).  Both keep only
per-name totals (calls, inclusive and self time, operation counts) and no
record per call, so memory stays flat and the hot functions stay cheap to
trace.  Each wrapped name is replaced in its defining module and in every
``reeb_atlas`` module that imported it with ``from .x import y``.  Wrappers
take ``*args, **kwargs``, and a name that no longer exists is reported as
absent instead of failing the run.

Self time of a span or counter is its duration minus the time of the traced
calls made directly inside it.
"""

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "reeb_atlas"

# "module.function", or "module.Class.method" for a method wrapped on the class
SPANS = [
    "cli.load_config", "cli._write_report",
    "cli.cmd_orbits_find", "cli.cmd_orbit_index", "cli.cmd_link",
    "cli.cmd_selflink", "cli.cmd_unknot", "cli.cmd_disk_gen",
    "cli.cmd_section_verify", "cli.cmd_binding_check", "cli.cmd_audit",
    "orbits.find_orbits", "orbits._newton_polish", "orbits.refine_orbit",
    "orbits.load_orbits", "orbits.save_orbits",
    "flow.integrate_flow",
    "cz.orbit_index_report", "cz.trivialized_path", "cz.rotation_interval",
    "cz.asymptotic_spectrum",
    "linking.trace_orbit", "linking.linking_number", "linking.self_linking",
    "linking.unknot_check",
    "sections.verify_global_section", "sections.transversality_check",
    "sections._node_frame_field", "sections.characteristic_field",
    "sections.return_map", "sections._first_crossing",
    "binding.check_binding", "binding.necessity_audit",
]
COUNTERS = [
    "kernels.ellipsoid_rhs", "kernels.ellipsoid_var_rhs",
    "kernels.weighted_rhs", "kernels.weighted_var_rhs",
    "kernels.weighted_h_parts", "kernels.poly_parts",
    "kernels.gauss_linking_raw", "kernels.hausdorff_distance",
    "kernels.point_to_polyline", "kernels.min_cross_distance",
    "contact.xi_frame", "contact.reeb_vector", "contact.project_to_sigma",
    "contact.StarForm.H", "contact.StarForm.grad_H", "contact.StarForm.hess_H",
    "contact.StarForm.H_batch",
]


def _bound_arg(sig, args, kwargs, name, default=None):
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(name, default)
    except TypeError:
        return default


def _integrate_flow_extra(sig, stats):
    def extra(args, kwargs, result, stat):
        stat.extra["integrated_time"] += abs(float(_bound_arg(sig, args, kwargs, "t_final", 0.0)))
        stat.extra["variational"] += bool(_bound_arg(sig, args, kwargs, "variational", False))
    return extra


def _gauss_extra(sig, stats):
    def extra(args, kwargs, result, stat):
        a = _bound_arg(sig, args, kwargs, "a", ())
        b = _bound_arg(sig, args, kwargs, "b", ())
        stat.extra["segment_pairs"] += len(a) * len(b)
    return extra


def _find_orbits_extra(sig, stats):
    def extra(args, kwargs, result, stat):
        stat.extra["new_primes"] += sum(
            1 for o in getattr(result, "orbits", []) if o.multiplicity == 1)
    return extra


def _trivialized_path_extra(sig, stats):
    def extra(args, kwargs, result, stat):
        stat.extra["samples"] += getattr(result, "n_steps", -1) + 1
    return extra


def _return_map_extra(sig, stats):
    def extra(args, kwargs, result, stat):
        stat.extra["seeds"] += len(result)
        stat.extra["timeouts"] += sum(1 for r in result if r.get("timeout"))
    return extra


def _index_report_extra(sig, stats):
    binding = stats["binding.check_binding"]

    def extra(args, kwargs, result, stat):
        stat.extra["in_binding_check"] += binding.open > 0
    return extra


# hooks that read an operation count off a call's arguments or result, or off
# the calls in progress; each is made with the name's signature and all stats
EXTRAS = {
    "flow.integrate_flow": _integrate_flow_extra,
    "kernels.gauss_linking_raw": _gauss_extra,
    "orbits.find_orbits": _find_orbits_extra,
    "cz.trivialized_path": _trivialized_path_extra,
    "sections.return_map": _return_map_extra,
    "cz.orbit_index_report": _index_report_extra,
}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    open: int = 0  # calls in progress
    extra: Counter = field(default_factory=Counter)


class Tracer:
    """Installs the wrappers and accumulates their statistics.

    ``stats`` maps each traced name to its call count, inclusive time, self
    time, calls in progress and extra operation counts.
    """

    def __init__(self, names=SPANS + COUNTERS):
        self.names = list(names)
        self.stats = {n: Stat() for n in self.names}
        self.absent = []
        self._stack = [[0.0]]  # time of traced children, per open call
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        self.absent = []
        for name in self.names:
            owner, attr = self._resolve(name)
            orig = None if owner is None else owner.__dict__.get(attr)
            if orig is None or not callable(orig):
                self.absent.append(name)
                continue
            hook = EXTRAS.get(name)
            extra = hook(inspect.signature(orig), self.stats) if hook else None
            self._rebind(owner, attr, orig, self._wrap(orig, self.stats[name], extra))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def _resolve(self, name):
        parts = name.split(".")
        owner = sys.modules.get(f"{PACKAGE}.{parts[0]}")
        for part in parts[1:-1]:
            owner = None if owner is None else owner.__dict__.get(part)
        return owner, parts[-1]

    def _rebind(self, owner, attr, orig, wrapper):
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or mod is None or not (
                        mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                targets += [(mod, k) for k, v in vars(mod).items() if v is orig]
        for tgt, key in targets:
            self._undo.append((tgt, key, orig))
            setattr(tgt, key, wrapper)

    def _wrap(self, fn, stat, extra):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.open += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.open -= 1
                stack.pop()
                stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
            if extra is not None:
                extra(args, kwargs, result, stat)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- queries ----------------------------------------------------------------

    def table(self):
        """Per-name calls, inclusive and self seconds, for the result details."""
        return {n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                for n, s in self.stats.items() if s.calls}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, sessions, session_s, overhead_ratio):
    """The per-layer metrics, each a per-session mean over ``sessions``.

    ``session_s`` is the traced sessions' wall time, the base of
    ``kernels.session_share``; ``overhead_ratio`` is reported as measured.
    """
    st = tracer.stats
    n = max(sessions, 1)

    def calls(*names):
        return sum(st[x].calls for x in names) / n

    def total(*names):
        return sum(st[x].total for x in names) / n

    def self_s(name):
        return st[name].self_time / n

    def extra(name, key):
        return st[name].extra[key] / n

    rhs = ("kernels.ellipsoid_rhs", "kernels.ellipsoid_var_rhs",
           "kernels.weighted_rhs", "kernels.weighted_var_rhs")
    h_parts = ("kernels.weighted_h_parts", "kernels.poly_parts")
    polyline = ("kernels.hausdorff_distance", "kernels.point_to_polyline",
                "kernels.min_cross_distance")
    kernel_s = total(*rhs, *h_parts, "kernels.gauss_linking_raw", *polyline)
    polish_calls = calls("orbits._newton_polish")
    new_primes = extra("orbits.find_orbits", "new_primes")
    integrated = extra("flow.integrate_flow", "integrated_time")
    seeds = extra("sections.return_map", "seeds")
    binding_checks = calls("binding.check_binding")
    m = {
        "kernels.rhs_calls": (calls(*rhs), "count"),
        "kernels.rhs_s": (total(*rhs), "s"),
        "kernels.rhs_us_per_call": (1e6 * _ratio(total(*rhs), calls(*rhs)), "us"),
        "kernels.h_parts_calls": (calls(*h_parts), "count"),
        "kernels.h_parts_s": (total(*h_parts), "s"),
        "kernels.gauss_calls": (calls("kernels.gauss_linking_raw"), "count"),
        "kernels.gauss_s": (total("kernels.gauss_linking_raw"), "s"),
        "kernels.gauss_segment_pairs": (extra("kernels.gauss_linking_raw", "segment_pairs"), "count"),
        "kernels.polyline_calls": (calls(*polyline), "count"),
        "kernels.polyline_s": (total(*polyline), "s"),
        "kernels.session_share": (_ratio(kernel_s, session_s), "ratio"),
        "contact.xi_frame_calls": (calls("contact.xi_frame"), "count"),
        "contact.xi_frame_s": (total("contact.xi_frame"), "s"),
        "contact.reeb_vector_calls": (calls("contact.reeb_vector"), "count"),
        "contact.grad_H_calls": (calls("contact.StarForm.grad_H"), "count"),
        "contact.project_calls": (calls("contact.project_to_sigma"), "count"),
        "flow.integrate_calls": (calls("flow.integrate_flow"), "count"),
        "flow.integrate_self_s": (self_s("flow.integrate_flow"), "s"),
        "flow.variational_calls": (extra("flow.integrate_flow", "variational"), "count"),
        "flow.integrated_time": (integrated, "reeb_time"),
        "flow.rhs_evals_per_unit_time": (_ratio(calls(*rhs), integrated), "1/reeb_time"),
        "orbits.find_s": (total("orbits.find_orbits"), "s"),
        "orbits.polish_calls": (polish_calls, "count"),
        "orbits.polish_s": (total("orbits._newton_polish"), "s"),
        "orbits.new_primes": (new_primes, "count"),
        "orbits.polish_useful_ratio": (_ratio(new_primes, polish_calls), "ratio"),
        "orbits.refine_calls": (calls("orbits.refine_orbit"), "count"),
        "orbits.load_verify_s": (total("orbits.load_orbits"), "s"),
        "cz.index_report_calls": (calls("cz.orbit_index_report"), "count"),
        "cz.index_report_s": (total("cz.orbit_index_report"), "s"),
        "cz.trivialized_path_s": (total("cz.trivialized_path"), "s"),
        "cz.path_samples": (extra("cz.trivialized_path", "samples"), "count"),
        "cz.rotation_interval_s": (total("cz.rotation_interval"), "s"),
        "cz.spectrum_s": (total("cz.asymptotic_spectrum"), "s"),
        "cz.index_reports_per_binding_check": (_ratio(
            extra("cz.orbit_index_report", "in_binding_check"), binding_checks),
            "count"),
        "linking.trace_calls": (calls("linking.trace_orbit"), "count"),
        "linking.trace_s": (total("linking.trace_orbit"), "s"),
        "linking.linking_number_calls": (calls("linking.linking_number"), "count"),
        "linking.linking_number_s": (total("linking.linking_number"), "s"),
        "linking.self_linking_s": (total("linking.self_linking"), "s"),
        "linking.unknot_s": (total("linking.unknot_check"), "s"),
        "sections.frame_field_s": (total("sections._node_frame_field"), "s"),
        "sections.transversality_s": (total("sections.transversality_check"), "s"),
        "sections.characteristic_field_s": (total("sections.characteristic_field"), "s"),
        "sections.return_map_s": (total("sections.return_map"), "s"),
        "sections.return_seeds": (seeds, "count"),
        "sections.return_ms_per_seed": (1e3 * _ratio(total("sections.return_map"), seeds), "ms"),
        "sections.timeouts": (extra("sections.return_map", "timeouts"), "count"),
        "binding.check_self_s": (self_s("binding.check_binding"), "s"),
        "binding.audit_self_s": (self_s("binding.necessity_audit"), "s"),
        "cli.load_config_s": (total("cli.load_config"), "s"),
        "cli.report_write_s": (total("cli._write_report"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.absent_names": (len(tracer.absent), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
