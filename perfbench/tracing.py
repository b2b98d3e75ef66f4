"""Spans around calls into hgdiff, installed from outside the program.

`Tracer.install` replaces each listed function at the name its caller looks
up -- a module global such as ``hgdiff.harness.encode_vjp``, or a method on
its class such as ``CsrMatrix.validate`` -- with a wrapper that records one
span per call: name, start, end and parent span. Every span of a job shares
the tracer's run id. Spans stay in memory until the job writes them out.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.

`stage_targets` are the few boundaries the end-to-end metrics need and are
installed on every run. `layer_targets` adds the per-module boundaries of the
traced run, together with the counts recorded at them.
"""

import collections
import contextlib
import functools
import resource
import time

# span fields
NAME, START, END, PARENT, RSS_IN, RSS_OUT = range(6)
FIELDS = ("name", "start", "end", "parent", "rss_in_mb", "rss_out_mb")

COUNTS = ("numerics.spmm.nnz", "numerics.spmm.bytes", "hetgraph.load_edge_list.edges",
          "tasks.bpr_loss.grad_bytes", "harness.evaluate.score_bytes")


def maxrss_mb():
    """Peak resident memory of this process so far, in MiB.

    Read from VmHWM, the high-water mark of this program's own memory map:
    ru_maxrss also keeps the peak of the parent at the moment it forked.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # KiB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.names = set()
        self.counts = collections.Counter({name: 0 for name in COUNTS})
        self.fingerprints = set()  # (config, dataset) of every training
        self._stack = []
        self._undo = []

    def _enter(self, name, rss):
        self._stack.append(len(self.spans))
        parent = self._stack[-2] if len(self._stack) > 1 else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           maxrss_mb() if rss else None, None])
        return self._stack[-1]

    def _exit(self, index, rss):
        span = self.spans[index]
        span[END] = time.perf_counter()
        if rss:
            span[RSS_OUT] = maxrss_mb()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, rss=False):
        """A span around a block of the benchmark's own code."""
        self.names.add(name)
        index = self._enter(name, rss)
        try:
            yield
        finally:
            self._exit(index, rss)

    def timed(self, fn, name, rss=False, after=None):
        """`fn` wrapped to record a span; `after(tracer, args, result)` may
        count and may replace the result (to time a returned closure)."""
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name, rss)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, rss)
            return after(self, args, result) if after else result

        return wrapper

    def install(self, targets):
        for owner, attr, name, rss, after in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.timed(raw.__func__, name, rss, after)))
            else:
                setattr(owner, attr, self.timed(raw, name, rss, after))
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        rows = {name: {"calls": 0, "total_s": 0.0, "s": 0.0} for name in self.names}
        for span, inner in zip(self.spans, child_s):
            row = rows[span[NAME]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += duration
            row["s"] += duration - inner
        return rows


# -- counts taken at the boundaries

def _count_spmm(tracer, args, out):
    # bytes moved: the CSR arrays (values, column indices, row offsets), one
    # gathered d-wide operand row per nonzero, one written output row per row
    a = args[0]
    d = out.shape[1]
    tracer.counts["numerics.spmm.nnz"] += a.nnz
    tracer.counts["numerics.spmm.bytes"] += 8 * (2 * a.nnz + a.rows + 1) + 8 * d * (a.nnz + a.rows)
    return out


def _count_edges(tracer, args, graph):
    tracer.counts["hetgraph.load_edge_list.edges"] += graph.edge_count()
    return graph


def _count_bpr_grad(tracer, args, out):
    # each chunk allocates a gradient over the whole fused table
    emb = args[0]
    tracer.counts["tasks.bpr_loss.grad_bytes"] += emb.shape[0] * emb.shape[1] * 8
    return out


def _count_scores(tracer, args, report):
    # link evaluation scores every test user against every item
    model = args[0]
    if model.cfg.task == "link":
        graph = model.graph
        items = graph.node_counts[graph.relations[graph.target].dst_type]
        tracer.counts["harness.evaluate.score_bytes"] += model.split.test_users.size * items * 8
    return report


def _count_training(tracer, args, result):
    trainer = args[0]
    tracer.fingerprints.add((trainer.cfg.fingerprint(), trainer.graph.fingerprint()))
    return result


def _time_backward(tracer, args, result):
    out, vjp = result
    return out, tracer.timed(vjp, "encoder.backward")


def stage_targets(hg, traced):
    """(owner, attribute, span name, sample rss, after) for the stage spans."""
    h = hg.harness
    return [
        (h.Trainer, "__init__", "harness.trainer_init", True, None),
        (h.Trainer, "run_epoch", "harness.run_epoch", True, None),
        (h.Trainer, "train", "harness.train", False, _count_training if traced else None),
        (h.TrainedModel, "evaluate", "harness.evaluate", True, _count_scores if traced else None),
        (h.TrainedModel, "load", "harness.load", False, None),
    ]


def layer_targets(hg):
    """Per-module spans of the traced run, each at the name its caller uses."""
    h, enc, num, het = hg.harness, hg.encoder, hg.numerics, hg.hetgraph
    return [
        (enc, "spmm", "numerics.spmm", False, _count_spmm),
        (num.CsrMatrix, "validate", "numerics.csr_validate", False, None),
        (num.CsrMatrix, "transpose", "numerics.transpose", False, None),
        (h, "adam_step", "numerics.adam_step", False, None),
        (h, "generate_synthetic", "hetgraph.generate_synthetic", True, None),
        (h, "load_edge_list", "hetgraph.load_edge_list", False, _count_edges),
        (het.HeteroGraph, "__init__", "hetgraph.graph_init", False, None),
        (h, "inject_edge_noise", "hetgraph.inject_edge_noise", False, None),
        (enc, "normalize", "hetgraph.normalize", False, None),
        (h, "encode_vjp", "encoder.forward", False, _time_backward),
        (h, "relation_adjacencies", "encoder.relation_adjacencies", False, None),
        (h, "diffusion_loss", "diffusion.diffusion_loss", False, None),
        (h, "reverse_denoise", "diffusion.reverse_denoise", False, None),
        (hg.diffusion, "denoise_predict", "diffusion.denoise_predict", False, None),
        (h, "denoise_predict", "diffusion.denoise_predict", False, None),
        (h, "sample_triplets", "tasks.sample_triplets", False, None),
        (h, "bpr_loss", "tasks.bpr_loss", False, _count_bpr_grad),
        (h, "ce_loss", "tasks.ce_loss", False, None),
        (h, "rank_metrics", "tasks.rank_metrics", False, None),
        (h, "class_metrics", "tasks.class_metrics", False, None),
        (h, "leave_one_out_split", "harness.leave_one_out_split", False, None),
        (h.Trainer, "draw_epoch", "harness.draw_epoch", False, None),
        (h.Trainer, "compute_losses", "harness.compute_losses", False, None),
        (h.TrainedModel, "inference_tables", "harness.inference_tables", False, None),
        (h.TrainedModel, "save", "harness.save", False, None),
        (hg.cli, "main", "cli.main", False, None),
    ]
