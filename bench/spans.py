"""Span recorder for the traced benchmark run (``--trace 1``).

Wrappers installed from here around the public functions and methods of each
``nkoszul`` module record one span per call: name, start, end, parent span
and job.  Self time is a span's duration minus that of its child spans.
Calls at very hot boundaries (``hot=True``) are summed into their parent span
instead of being kept one by one.  Spans stay in memory and are written out
by ``dump`` when the run ends.  Nothing here runs unless ``install`` is
called, so untraced runs execute the program unchanged.
"""

import functools
import json
import time
from collections import defaultdict

# (module, class or None, attribute, span name, hot)
TARGETS = [
    ("cli", None, "main", "cli", False),
    ("definitions", None, "parse_definition", "definitions.parse", False),
    ("linalg", None, "rref", "linalg.rref", False),
    ("words", None, "annihilator", "words.annihilator", False),
    ("reduction", None, "reduction_operator", "reduction.operator", False),
    ("sparsela", "Eliminator", "__init__", "sparsela.new", True),
    ("sparsela", "Eliminator", "add", "sparsela.add", True),
    ("sparsela", "Eliminator", "finalize", "sparsela.finalize", True),
    ("algebra", "NHomogeneousAlgebra", "_build_next", "algebra.build", False),
    ("algebra", "NHomogeneousAlgebra", "lmul", "algebra.lmul", True),
    ("koszul", "NComplexSlice", "apply_differential", "koszul.apply", True),
    ("koszul", "LComplexSlice", "apply_differential", "koszul.apply", True),
    ("koszul", "NComplexSlice", "apply_transposed", "koszul.apply_t", True),
    ("koszul", "LComplexSlice", "apply_transposed", "koszul.apply_t", True),
    ("koszul", "NComplexSlice", "verify_dN", "koszul.verify", False),
    ("koszul", "LComplexSlice", "verify_dN", "koszul.verify", False),
    ("koszul", "NComplexSlice", "rank_power", "koszul.rank_power", True),
    ("koszul", "LComplexSlice", "rank_power", "koszul.rank_power", True),
    ("koszul", None, "generalized_homology", "koszul.homology", False),
    ("koszul", "ContractedComplex", "homology_dim", "koszul.contracted", True),
    ("koszul", "ContractedComplex", "h0_dims", "koszul.contracted", False),
    ("koszul", None, "koszulity_check", "koszul.koszulity", False),
    ("koszul", None, "tor_dims", "koszul.tor", False),
]

# per-layer time metric -> the spans whose self times it sums
TIME_METRICS = {
    "sparsela.elim_s": ("sparsela.new", "sparsela.add", "sparsela.finalize"),
    "algebra.build_s": ("algebra.build",),
    "algebra.lmul_s": ("algebra.lmul",),
    "koszul.apply_s": ("koszul.apply",),
    "koszul.apply_t_s": ("koszul.apply_t",),
    "koszul.verify_s": ("koszul.verify",),
    "koszul.rank_power_s": ("koszul.rank_power",),
    "koszul.homology_s": ("koszul.homology",),
    "koszul.contracted_s": ("koszul.contracted",),
    "koszul.koszulity_s": ("koszul.koszulity",),
    "koszul.tor_s": ("koszul.tor",),
    "definitions.parse_s": ("definitions.parse",),
    "linalg.rref_s": ("linalg.rref",),
    "words.annihilator_s": ("words.annihilator",),
    "reduction.operator_s": ("reduction.operator",),
    "cli.self_s": ("cli",),
}
# per-layer count metric -> the span whose calls it counts
CALL_METRICS = {
    "linalg.rref_calls": "linalg.rref",
    "koszul.apply_calls": "koszul.apply",
    "koszul.apply_t_calls": "koszul.apply_t",
    "koszul.rank_power_calls": "koszul.rank_power",
    "algebra.degrees_built": "algebra.build",
    "sparsela.rows_fed": "sparsela.add",
}
COUNTERS = ["fields.max_bits", "sparsela.nnz_fed", "sparsela.pivots",
            "sparsela.fill_nnz", "algebra.dim_sum", "koszul.bar_cells"]


def bar_cells(algebra, i_max, n_max):
    """Sum of the bar-block dimensions tor_dims builds, from Hilbert dims."""
    dims = [algebra.dim(n) for n in range(n_max + 1)]
    row = [1] + [0] * n_max           # blocks of i = 0
    total = 1
    for _ in range(i_max + 1):
        row = [sum(dims[s] * row[t - s] for s in range(1, t + 1))
               for t in range(n_max + 1)]
        total += sum(row)
    return total


def entry_bits(value):
    """Larger of the numerator and denominator bit lengths of a QQ scalar."""
    return max(int(value.numerator).bit_length(),
               int(value.denominator).bit_length())


class Recorder:
    def __init__(self):
        self.stack = []                   # open frames [name, start, child, id]
        self.spans = []                   # (id, parent, job, name, start, end)
        self.hot = defaultdict(lambda: [0, 0.0])  # (parent, name) -> count, s
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.max_bits = 0
        self.eliminators = []
        self.job = -1
        self.next_id = 0
        self.restore = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, hot, after):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.next_id += 1
            frame = [name, time.perf_counter(), 0.0, rec.next_id]
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                dur = end - frame[1]
                rec.self_time[name] += dur - frame[2]
                rec.calls[name] += 1
                parent = rec.stack[-1] if rec.stack else None
                if parent is not None:
                    parent[2] += dur
                if hot:
                    cell = rec.hot[(parent[3] if parent else 0, name)]
                    cell[0] += 1
                    cell[1] += dur
                else:
                    rec.spans.append((frame[3], parent[3] if parent else 0,
                                      rec.job, name, frame[1], end))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after(self, name):
        if name == "sparsela.new":
            return lambda args, result: self.eliminators.append(args[0])
        if name == "sparsela.add":
            def fed(args, result):
                self.counters["sparsela.nnz_fed"] += len(args[1])
                if result is not None:
                    self.counters["sparsela.pivots"] += 1
            return fed
        if name == "algebra.build":
            def built(args, result):
                self.counters["algebra.dim_sum"] += result.dim
            return built
        if name == "koszul.tor":
            def cells(args, result):
                self.counters["koszul.bar_cells"] += bar_cells(*args[:3])
            return cells
        return None

    def install(self, lib_modules):
        """Wrap every target; functions are also replaced where imported."""
        for mod_name, cls_name, attr, name, hot in TARGETS:
            module = lib_modules[mod_name]
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, hot, self._after(name))
            setattr(owner, attr, wrapped)
            self.restore.append((owner, attr, original))
            if cls_name is None:
                for other in lib_modules.values():
                    if other is not module and \
                            getattr(other, attr, None) is original:
                        setattr(other, attr, wrapped)
                        self.restore.append((other, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore = []

    # -- per job ----------------------------------------------------------

    def start_job(self, job):
        self.job = job

    def end_job(self):
        """Fold the fill-in and coefficient size of the job's eliminators."""
        for elim in self.eliminators:
            rational = elim.field.kind == "rational"
            for row in elim.pivot_rows.values():
                self.counters["sparsela.fill_nnz"] += len(row)
                if rational:
                    for v in row.values():
                        bits = entry_bits(v)
                        if bits > self.max_bits:
                            self.max_bits = bits
        self.eliminators = []

    # -- results ----------------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics per round of the workload."""
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = (sum(self.self_time[n] for n in names) / rounds, "s")
        for metric, name in CALL_METRICS.items():
            out[metric] = (self.calls[name] / rounds, "count")
        for metric in COUNTERS:
            out[metric] = (self.counters[metric] / rounds, "count")
        out["fields.max_bits"] = (self.max_bits, "bits")
        fed = self.calls["sparsela.add"]
        out["sparsela.pivot_yield"] = (
            self.counters["sparsela.pivots"] / fed if fed else 0.0, "ratio")
        return out

    def dump(self, path):
        """Write the spans and the summed hot calls as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            for (parent, name), (count, total) in sorted(self.hot.items()):
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": count, "total": total}) + "\n")
