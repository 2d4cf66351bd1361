"""Span tracing of signeddec's layers from outside the package.

The tracer wraps public functions of each ``signeddec`` module and
replaces every bound name that refers to them: the defining module's
attribute and each importing module's copy (``signeddec.poisson.
classify_complex``, ``signeddec.fixtures.build_complex`` and so on), so
calls between modules go through the wrappers. Nothing under ``src/`` is
edited; ``uninstall`` puts the original functions back.

Three kinds of wrapper:

- span functions open a span (name, start, end, parent) on every call.
- boundary functions open a span only when called from another layer,
  i.e. when the innermost open span belongs to a different module, and are
  otherwise only counted. So the per-simplex ``signed_dual_volume`` calls
  that ``dual_volumes`` makes fall into the ``dual_volumes`` span, while
  the CLI's own per-simplex calls get spans of their own.
- count functions are called so often that only their calls are counted;
  their time is self time of whatever span encloses them.

Self time of a span is its duration minus the durations of its child
spans. Spans are kept in memory and written out by ``write_spans``.
"""

import sys
import time
import tracemalloc

SPAN_FUNCTIONS = {
    "cli": ("main",),
    "meshfile": ("read_mesh", "write_mesh", "load_complex"),
    "complexes": ("build_complex", "boundary_operator"),
    "geometry": ("batched_volumes", "batched_circumcenters"),
    "signed_dual": ("dual_volumes",),
    "delaunay": ("classify_complex",),
    "hodge": ("hodge_star", "validate_hodge"),
    "poisson": (
        "figure1_experiment", "assemble_mixed_poisson", "solve_mixed_poisson",
        "sigma_vectors",
    ),
    "fixtures": ("generate_fixture",),
}

BOUNDARY_FUNCTIONS = {
    "signed_dual": ("signed_dual_volume",),
}

COUNT_FUNCTIONS = {
    "config": ("tolerance",),
    "geometry": ("simplex_volume", "circumcenter", "flatten_pair"),
    "signed_dual": ("step_sign",),
    "delaunay": ("pair_status_points",),
}


class Tracer:
    """Spans and call counts of one process; ``begin_op`` starts a new op."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []          # (op, span id, name, start, end, parent id)
        self.op = -1
        self._stack = []         # [span id, layer, start, child time]
        self._next_id = 0
        self._patched = []       # (module, attribute, original)
        self._open = {}          # qualified name -> open span depth
        self.self_time = {}      # qualified name -> seconds, this op
        self.calls = {}          # qualified name -> calls, this op
        self.attempts = 0        # build_complex calls inside generate_fixture
        self.peak_alloc = 0      # bytes, max over signed_dual spans, this op

    def begin_op(self, op):
        self.op = op
        self.self_time = {}
        self.calls = {}
        self.attempts = 0
        self.peak_alloc = 0

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, layer, func, boundary_only=False):
        qualified = f"{layer}.{func.__name__}"
        stack = self._stack
        is_build = qualified == "complexes.build_complex"
        track_memory = self.memory and layer == "signed_dual"

        def wrapper(*args, **kwargs):
            self.calls[qualified] = self.calls.get(qualified, 0) + 1
            if is_build and self._open.get("fixtures.generate_fixture"):
                self.attempts += 1
            if boundary_only and stack and stack[-1][1] == layer:
                return func(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span_id = self._next_id
            self._next_id += 1
            self._open[qualified] = self._open.get(qualified, 0) + 1
            started_memory = track_memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            frame = [span_id, layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if started_memory:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._open[qualified] -= 1
                duration = end - frame[2]
                self.self_time[qualified] = (
                    self.self_time.get(qualified, 0.0) + duration - frame[3]
                )
                if stack:
                    stack[-1][3] += duration
                self.spans.append((self.op, span_id, qualified, frame[2], end, parent))

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, layer, func):
        qualified = f"{layer}.{func.__name__}"

        def wrapper(*args, **kwargs):
            self.calls[qualified] = self.calls.get(qualified, 0) + 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self):
        """Replace every bound name of the traced functions in signeddec."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "signeddec" or name.startswith("signeddec."))
        ]
        kinds = (
            (SPAN_FUNCTIONS, self._span_wrapper),
            (BOUNDARY_FUNCTIONS, lambda layer, f: self._span_wrapper(layer, f, True)),
            (COUNT_FUNCTIONS, self._count_wrapper),
        )
        for table, make in kinds:
            for layer, names in table.items():
                home = sys.modules[f"signeddec.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = make(layer, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patched.append((module, attr, original))
                                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- results -------------------------------------------------------

    def op_metrics(self, op_seconds):
        """Per-layer metrics of the op just traced, by metric name."""
        self_time = self.self_time
        calls = self.calls

        def seconds(*names):
            return sum(self_time.get(n, 0.0) for n in names)

        def layer_self(layer):
            return sum(v for k, v in self_time.items() if k.split(".", 1)[0] == layer)

        generated = calls.get("fixtures.generate_fixture", 0)
        return {
            "signed_dual.self_s": layer_self("signed_dual"),
            "signed_dual.self_share": layer_self("signed_dual") / op_seconds,
            "signed_dual.dual_volumes_s": seconds("signed_dual.dual_volumes"),
            "signed_dual.signed_dual_volume_s": seconds("signed_dual.signed_dual_volume"),
            "signed_dual.step_sign_calls": calls.get("signed_dual.step_sign", 0),
            "signed_dual.peak_alloc_mb": self.peak_alloc / 2**20,
            "geometry.batched_s": layer_self("geometry"),
            "geometry.simplex_volume_calls": calls.get("geometry.simplex_volume", 0),
            "geometry.circumcenter_calls": calls.get("geometry.circumcenter", 0),
            "geometry.flatten_pair_calls": calls.get("geometry.flatten_pair", 0),
            "complexes.build_s": seconds("complexes.build_complex"),
            "complexes.build_calls": calls.get("complexes.build_complex", 0),
            "complexes.boundary_operator_s": seconds("complexes.boundary_operator"),
            "delaunay.classify_s": layer_self("delaunay"),
            "delaunay.pair_points_calls": calls.get("delaunay.pair_status_points", 0),
            "poisson.self_s": layer_self("poisson"),
            "poisson.assemble_s": seconds("poisson.assemble_mixed_poisson"),
            "poisson.solve_s": seconds("poisson.solve_mixed_poisson"),
            "poisson.sigma_vectors_s": seconds("poisson.sigma_vectors"),
            "fixtures.generate_s": layer_self("fixtures"),
            "fixtures.attempts": self.attempts,
            "fixtures.accept_ratio": generated / self.attempts if self.attempts else 0.0,
            "meshfile.read_s": seconds("meshfile.read_mesh", "meshfile.load_complex"),
            "meshfile.write_s": seconds("meshfile.write_mesh"),
            "hodge.star_s": layer_self("hodge"),
            "cli.self_s": layer_self("cli"),
            "config.tolerance_calls": calls.get("config.tolerance", 0),
        }

    def write_spans(self, path):
        """One span per line: op, id, name, start, end, parent (-1 for none)."""
        with open(path, "w") as handle:
            handle.write("op,id,name,start,end,parent\n")
            for op, span_id, name, start, end, parent in self.spans:
                handle.write(
                    f"{op},{span_id},{name},{start:.9f},{end:.9f},"
                    f"{-1 if parent is None else parent}\n"
                )


# Units of the per-layer metrics, by the suffix of their names.
def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"
