"""Per-layer spans recorded from outside the program.

The benchmark wraps public functions of each spinquench module at the
module namespace they are called through, so no program file changes.
Every wrapped call records one span (name, start, end, parent) in
memory; spans are aggregated per name into calls, busy time (total span
time) and self time (busy time minus the time covered by child spans).

A few wrappers also observe their arguments and results to derive
computed work counts: SVD flops and block sizes from the shapes
block_svd receives, matvecs and bytes moved from taylor_step calls,
distinct boundary pairs from the samples assemble_window_state
receives, and truncation figures from the reports update_bond returns.
These are arithmetic on shapes, not hardware counters, and are labelled
"computed" wherever they are printed.

Worker processes of the sampling pool cannot return spans, so a traced
run must sample with one worker.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time


class Tracer:
    """In-memory span log plus the computed work counts of one traced pass."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.svd_blocks = 0
        self.svd_largest_block = 0
        self.svd_flop = 0.0
        self.discarded_weight = 0.0
        self.bond_dim_max = 0
        self.checkpoint_bytes = 0
        self.matvecs = 0
        self.matvec_bytes = 0.0
        self.sector_dim = 0
        self.pairs_seen = 0
        self.distinct_pairs = set()
        self.window_qubits = 0
        self.sampled_stderrs = []

    def wrap(self, name, fn, observe=None):
        """fn wrapped so each call records a span; observe sees the result."""
        # Bound to locals: the wrapper runs on every traced call.
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def aggregate(self):
        """{span name: [calls, busy_s, self_s]}."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def spans(self):
        """Spans as [name, start, end, parent] rows, for the span file."""
        return [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


# -- observers: computed work counts ---------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def svd_flop(m, n):
    """Flops of a thin complex SVD with both factors, m x n.

    Golub & Van Loan count 14 m n^2 + 8 n^3 real flops for the
    Golub-Reinsch SVD with thin U and V (m >= n); complex arithmetic
    costs four times as many.
    """
    m, n = max(m, n), min(m, n)
    return 4.0 * (14.0 * m * n * n + 8.0 * n ** 3)


def _observe_block_svd(tr, args, kwargs, result):
    theta = _arg(args, kwargs, 0, "theta")
    for arr in theta.blocks.values():
        m, n = arr.shape
        tr.svd_blocks += 1
        tr.svd_largest_block = max(tr.svd_largest_block, m, n)
        tr.svd_flop += svd_flop(m, n)


def _observe_update_bond(tr, args, kwargs, result):
    state, report = result
    tr.discarded_weight += report.discarded_weight
    tr.bond_dim_max = max(
        tr.bond_dim_max, state.lambda_a.total_dim, state.lambda_b.total_dim
    )


def _observe_checkpoint(tr, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    tr.checkpoint_bytes = max(tr.checkpoint_bytes, os.path.getsize(path))


def _observe_assemble(tr, args, kwargs, result):
    sample = _arg(args, kwargs, 2, "sample")
    tr.pairs_seen += 1
    tr.distinct_pairs.add((sample.alpha, sample.beta))


def _taylor_observer(original_sector):
    """Observer for taylor_step; reads the cached sector, untraced."""

    def observe(tr, args, kwargs, result):
        psi = _arg(args, kwargs, 0, "psi")
        n_max = _arg(args, kwargs, 3, "n_max")
        basis, h_sec = original_sector(_arg(args, kwargs, 1, "h"), psi.total_sz_sector)
        dim = basis.size
        tr.matvecs += n_max
        tr.sector_dim = max(tr.sector_dim, dim)
        # Per Taylor order: one CSR matvec (values, column indices, row
        # pointers, complex input and output vectors), the scaling of
        # the term (read + write) and the accumulation (two reads, one
        # write), all on complex128 sector vectors.
        csr = h_sec.nnz * (h_sec.data.itemsize + h_sec.indices.itemsize)
        csr += (dim + 1) * h_sec.indptr.itemsize
        vectors = 16 * dim * (2 + 2 + 3)
        tr.matvec_bytes += n_max * (csr + vectors)

    return observe


def _observe_regions(tr, args, kwargs, result):
    tr.window_qubits = max(tr.window_qubits, result.w_hi - result.w_lo + 1)


def _observe_sampled(tr, args, kwargs, result):
    tr.sampled_stderrs.append(result[1])


# -- the patch table --------------------------------------------------------


def _patch_table(sq):
    """(span name, home object, attribute, namespaces, observer) rows.

    A function is replaced in its home module and in every module that
    imported it by name, because a call resolves the name in the
    caller's namespace.
    """
    g, it, ck, sa, wi, ha, cl, ci = (
        sq.graded, sq.itebd, sq.checkpoint, sq.sampler, sq.window,
        sq.harness, sq.cli, sq.circuit,
    )
    sector = wi.SparseWindowHamiltonian.sector
    return [
        ("graded.block_svd", g, "block_svd", (g, it), _observe_block_svd),
        ("graded.merged_truncate", g, "merged_truncate", (g, it), None),
        ("itebd.update_bond", it, "update_bond", (it,), _observe_update_bond),
        ("itebd.expect_pair_observable", it, "expect_pair_observable", (it,), None),
        ("itebd.expect_sz", it, "expect_sz", (it,), None),
        ("itebd.evolve_to", it, "evolve_to", (it, ha), None),
        ("checkpoint.save_checkpoint", ck, "save_checkpoint", (ck, ha), _observe_checkpoint),
        ("checkpoint.load_checkpoint", ck, "load_checkpoint", (ck, ha), _observe_checkpoint),
        ("sampler.sample_alpha", sa, "sample_alpha", (sa, ha), None),
        ("sampler.sample_spins_and_beta", sa, "sample_spins_and_beta", (sa, ha), None),
        ("sampler.assemble_window_state", sa, "assemble_window_state", (sa, ha), _observe_assemble),
        ("window.build_hloc", wi, "build_hloc", (wi, ha), None),
        ("window.evolve_and_measure", wi, "evolve_and_measure", (wi, ha), None),
        ("window.taylor_step", wi, "taylor_step", (wi,), _taylor_observer(sector)),
        ("window.sz_center", wi, "sz_center", (wi,), None),
        ("window.sector_build", wi.SparseWindowHamiltonian, "sector",
         (wi.SparseWindowHamiltonian,), None),
        ("harness.run_itebd", ha, "run_itebd", (ha, cl), None),
        ("harness.run_mc", ha, "run_mc", (ha, cl), None),
        ("harness.sample_one", ha, "sample_one", (ha,), None),
        ("cli.main", cl, "main", (cl,), None),
        ("circuit.direct_expectation", ci, "direct_expectation", (ci, cl), None),
        ("circuit.lightcone_expectation_sum", ci, "lightcone_expectation_sum", (ci, cl), None),
        ("circuit.lightcone_expectation_sampled", ci, "lightcone_expectation_sampled",
         (ci, cl), _observe_sampled),
        ("circuit.build_regions", ci, "build_regions", (ci,), _observe_regions),
    ]


@contextlib.contextmanager
def traced(sq, tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for name, home, attr, namespaces, observe in _patch_table(sq):
            wrapper = tracer.wrap(name, getattr(home, attr), observe)
            for ns in namespaces:
                saved.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)


#: Per-layer metrics of a traced pass: (name, unit). BENCHMARK.json
#: lists the same names in the same order.
PER_LAYER = [
    ("graded.block_svd.busy_s", "s"),
    ("graded.block_svd.calls", "count"),
    ("graded.svd_blocks", "count"),
    ("graded.svd_largest_block", "count"),
    ("graded.svd_gflop", "Gflop"),
    ("graded.merged_truncate.busy_s", "s"),
    ("itebd.update_bond.busy_s", "s"),
    ("itebd.update_bond.self_s", "s"),
    ("itebd.update_bond.calls", "count"),
    ("itebd.expect_pair_observable.busy_s", "s"),
    ("itebd.discarded_weight", "1"),
    ("itebd.bond_dim_max", "count"),
    ("checkpoint.save_checkpoint.busy_s", "s"),
    ("checkpoint.save_checkpoint.calls", "count"),
    ("checkpoint.load_checkpoint.busy_s", "s"),
    ("checkpoint.load_checkpoint.calls", "count"),
    ("checkpoint.bytes", "B"),
    ("sampler.sample_alpha.busy_s", "s"),
    ("sampler.sample_spins_and_beta.busy_s", "s"),
    ("sampler.assemble_window_state.busy_s", "s"),
    ("sampler.distinct_pairs_frac", "frac"),
    ("window.taylor_step.busy_s", "s"),
    ("window.taylor_step.calls", "count"),
    ("window.matvecs", "count"),
    ("window.sector_dim", "count"),
    ("window.matvec_gbytes", "GB"),
    ("window.sector_build.busy_s", "s"),
    ("window.sz_center.busy_s", "s"),
    ("harness.run_mc.self_s", "s"),
    ("harness.sample_one.busy_s", "s"),
    ("harness.samples_per_s", "1/s"),
    ("cli.main.self_s", "s"),
    ("circuit.build_regions.busy_s", "s"),
    ("circuit.window_qubits", "count"),
    ("circuit.sampled_stderr", "1"),
    ("circuit.direct_expectation.busy_s", "s"),
    ("circuit.lightcone_expectation_sum.busy_s", "s"),
    ("circuit.lightcone_expectation_sampled.busy_s", "s"),
    ("tracing_overhead_s", "s"),
]

#: Metrics derived from shapes rather than measured.
COMPUTED = {"graded.svd_gflop", "window.matvec_gbytes"}


def layer_values(tracer):
    """Per-layer metric values of one traced pass (all but the overhead)."""
    agg = tracer.aggregate()

    def field(span, index):
        row = agg.get(span)
        return row[index] if row else 0

    values = {}
    for name, _unit in PER_LAYER:
        for suffix, index in ((".calls", 0), (".busy_s", 1), (".self_s", 2)):
            if name.endswith(suffix):
                values[name] = field(name[: -len(suffix)], index)
    mc_busy = field("harness.run_mc", 1)
    values.update({
        "graded.svd_blocks": tracer.svd_blocks,
        "graded.svd_largest_block": tracer.svd_largest_block,
        "graded.svd_gflop": tracer.svd_flop / 1e9,
        "itebd.discarded_weight": tracer.discarded_weight,
        "itebd.bond_dim_max": tracer.bond_dim_max,
        "checkpoint.bytes": tracer.checkpoint_bytes,
        "sampler.distinct_pairs_frac": (
            len(tracer.distinct_pairs) / tracer.pairs_seen if tracer.pairs_seen else 0.0
        ),
        "window.matvecs": tracer.matvecs,
        "window.sector_dim": tracer.sector_dim,
        "window.matvec_gbytes": tracer.matvec_bytes / 1e9,
        "harness.samples_per_s": (
            field("harness.sample_one", 0) / mc_busy if mc_busy > 0 else 0.0
        ),
        "circuit.window_qubits": tracer.window_qubits,
        "circuit.sampled_stderr": (
            sum(tracer.sampled_stderrs) / len(tracer.sampled_stderrs)
            if tracer.sampled_stderrs else 0.0
        ),
    })
    return values
