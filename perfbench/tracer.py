"""In-memory span tracer for the nldir benchmark.

The tracer wraps nldir's public functions and methods at the module
boundaries listed in BOUNDARIES. A wrapped name is replaced in every
loaded nldir module that holds it, so calls through imported names
(`nldir.assembly.neighbor_pairs`, `nldir.study.mollify`, ...) are seen
too. Each call records one span: name, parent, start and end. Spans stay
in memory until the benchmark writes them out. A span's self time is its
duration minus the durations of its direct children.

A boundary that no longer exists (a later change deleted or renamed it)
is listed in `absent`. A boundary whose arguments or result no longer
have the fields a count reads is listed in `unreadable`. The metrics
that depend on either read 0 and are reported as absent, and the run
stays valid.

The tracer assumes one thread: the benchmark runs nldir with
`--threads 1`, so spans nest strictly.
"""

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "kernels", "assembly", "minimize", "spectra", "study",
          "cli")


def _eval_scaled(tracer, args, kwargs, result):
    rho = args[1] if len(args) > 1 else kwargs.get("rho")
    tracer.counts["kernels.eval_scaled.points"] += getattr(rho, "size", 1)


def _build_mesh(tracer, args, kwargs, result):
    tracer.mesh_serial(result)


def _neighbor_pairs(tracer, args, kwargs, result):
    mesh = args[0] if args else kwargs["mesh"]
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    key = (tracer.mesh_serial(mesh), float(radius))
    if key not in tracer.pair_tables:
        # the CSR adjacency lists every unordered pair in both directions
        tracer.pair_tables[key] = len(result.indices) // 2


def _solve_quadratic(tracer, args, kwargs, result):
    tracer.counts["minimize.cg_iterations"] += result.iterations


def _solve_p_energy(tracer, args, kwargs, result):
    tracer.counts["minimize.ncg_iterations"] += result.iterations


def _solve_eigen(tracer, args, kwargs, result):
    its = tuple(int(i) for i in result.iterations)
    tracer.eigen_iterations.append((result.mass_model, its))
    tracer.counts[f"spectra.iterations.{result.mass_model}"] += sum(its)


def _apply_quadratic(tracer, args, kwargs, result):
    tracer.counts["assembly.apply_quadratic.bytes"] += matvec_bytes(args[0])


def matvec_bytes(op):
    """Bytes one apply_quadratic call reads and writes, computed from the
    sizes of the arrays it touches: the sparse interior matrix, the
    penalty diagonal, the rank-one penalty tables (read twice), the input
    and the output. Cache reuse is ignored."""
    a_int, diag, _, _, lowrank = op._p2
    # the diagonal, the input and the output are each n doubles
    total = (a_int.data.nbytes + a_int.indices.nbytes + a_int.indptr.nbytes
             + 3 * diag.nbytes)
    if lowrank is not None:
        total += lowrank.nbytes + 2 * (op.pen_coef.nbytes
                                       + op.pen_indices.nbytes
                                       + op.pen_rowid.nbytes)
    return int(total)


# (layer module, attribute or Class.method, span stem, hook)
BOUNDARIES = (
    ("geometry", "build_mesh", "build_mesh", _build_mesh),
    ("geometry", "neighbor_pairs", "neighbor_pairs", _neighbor_pairs),
    ("kernels", "eval_scaled", "eval_scaled", _eval_scaled),
    ("kernels", "sigma_r", "sigma_r", None),
    ("kernels", "normalize_w", "normalize_w", None),
    ("kernels", "validate_kernel", "validate_kernel", None),
    ("assembly", "assemble", "assemble", None),
    ("assembly", "boundary_data", "boundary_data", None),
    ("assembly", "mollify", "mollify", None),
    ("assembly", "w_mass_matrix", "w_mass_matrix", None),
    ("assembly", "EnergyOperator.apply_quadratic", "apply_quadratic",
     _apply_quadratic),
    ("assembly", "EnergyOperator.energy", "energy", None),
    ("assembly", "EnergyOperator.gradient", "gradient", None),
    ("minimize", "solve_quadratic", "solve_quadratic", _solve_quadratic),
    ("minimize", "solve_p_energy", "solve_p_energy", _solve_p_energy),
    ("spectra", "EigenProblem.__init__", "EigenProblem", None),
    ("spectra", "EigenProblem.apply_mass", "apply_mass", None),
    ("spectra", "solve_eigen", "solve_eigen", _solve_eigen),
    ("study", "manufactured_case", "manufactured_case", None),
    ("study", "run_delta_sweep", "run_delta_sweep", None),
    ("study", "coercivity_probe", "coercivity_probe", None),
    ("cli", "dispatch", "dispatch", None),
)


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self):
        # each span: [name, parent index or -1, start, end, children's seconds]
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = []
        self.unreadable = set()
        self.counts = defaultdict(int)
        self.pair_tables = {}       # (mesh serial, radius) -> unordered pairs
        self.meshes = []            # strong references keep ids unique
        self._serial_by_id = {}
        self.eigen_iterations = []  # (mass model, per-mode iterations)

    def mesh_serial(self, mesh):
        serial = self._serial_by_id.get(id(mesh))
        if serial is None:
            serial = len(self.meshes)
            self.meshes.append(mesh)
            self._serial_by_id[id(mesh)] = serial
        return serial

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
                if span[1] >= 0:
                    spans[span[1]][4] += span[3] - span[2]
            if hook is not None and name not in self.unreadable:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError,
                        ValueError):
                    # the boundary exists but what the count reads changed
                    self.unreadable.add(name)
            return result

        return wrapper

    def install(self):
        """Wrap every boundary that exists in the loaded nldir package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nldir"
                                         or n.startswith("nldir."))]
        for layer, path, stem, hook in BOUNDARIES:
            home = sys.modules.get(f"nldir.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = home
            if owner_name and home is not None:
                owner = vars(home).get(owner_name)
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                self.absent.append(f"{layer}.{stem}")
                continue
            wrapped = self._wrap(f"{layer}.{stem}", orig, hook)
            if owner_name:
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, orig))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)
                        self._patches.append((module, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def summary(self):
        """Per span name: calls, total seconds, self seconds; per layer:
        self seconds; plus calls grouped by the caller's span name."""
        names = defaultdict(lambda: [0, 0.0, 0.0])
        by_parent = defaultdict(int)
        for name, parent, start, end, child in self.spans:
            entry = names[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
            if parent >= 0:
                by_parent[(self.spans[parent][0], name)] += 1
        layers = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in names.items():
            layers[name.split(".", 1)[0]] += self_s
        return {"names": dict(names), "layers": layers,
                "by_parent": dict(by_parent)}

    def write_spans(self, path):
        """One CSV line per span: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")
