"""gasymp benchmark: cold invariant chains, ring presentations and warm-cache
re-analysis, with every output checked.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root.  One process, no threads, no ``--jobs``.
A run sets up its inputs from the seed, then repeats passes over them until
``--seconds`` have elapsed (at least one pass).  Every time it reports is in
reference seconds, wall time corrected for the machine's speed by
``perfbench/speedclock.py`` (a timer signal samples a calibration kernel in
this same process every 20 ms).  Every operation's output is
checked after the pass, outside the timed region.  The last line printed is
one JSON object; with ``--trace 0`` it carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``perfbench/layertrace.py``, taken from
traced passes that follow an untraced phase of the same length.

Workloads (see perfbench/NOTES.md for why each was chosen):

* ``chain``: cold ``report.analyze`` plus ``render_structured`` at level 0
  for sym1, sym2, sym1+sym0 and sym1^2, and ``graded_kernel`` on the zero
  levels of sym3 and sym4 in degrees 1-4 (one operation per representation);
  every operation gets a fresh, empty cache directory.
* ``presentation``: relation ideals of seeded variants of published
  generator tables by tag elimination, ``Ideal(ext, graph).eliminate(tags)``,
  with the disk cache off.
* ``warm``: set-up fills a private cache by analysing sym1, sym2,
  sym1+sym0 and sym1^2 at levels 0, 1 and generic; each pass repeats those
  twelve analyses against the filled cache.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from layertrace import Tracer, per_layer_names
from speedclock import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_BASE = ROOT / ".perfbench_tmp"
clock = time.perf_counter
SPEED = SpeedClock()  # every reported time is read from it, in reference seconds

MODULES = ("poly", "groebner", "linalg", "forms", "reps", "moments", "levelsets",
           "invariants", "comparison", "report", "cache", "suite")

END_TO_END = (
    ("pass_ref_s", "s"),
    ("op_p50_ref_ms", "ms"),
    ("op_p90_ref_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Output facts recorded at the commit that introduced this benchmark.  Each is
# exact for a fixed input: statuses and graded-kernel dimensions are
# deterministic, and a reduced Groebner basis is unique for its order.
EXPECTED_STATUS = {
    # (spec, level): (termination, least certified degree, component termination)
    # The least certified degree at level 0 is the oracle criterion's bound.
    ("sym1", "0"): ("CapReached", 4, "Terminated"),
    ("sym2", "0"): ("Terminated", 4, None),
    ("sym1+sym0", "0"): ("CapReached", 4, "Terminated"),
    ("sym1^2", "0"): ("Terminated", 4, None),
    ("sym1", "1"): ("Terminated", 0, None),
    ("sym2", "1"): ("Terminated", 0, None),
    ("sym1+sym0", "1"): ("Terminated", 0, None),
    ("sym1^2", "1"): ("Terminated", 0, None),
}
KERNEL_DIMS = {
    "sym3": {1: 2, 2: 8, 3: 18, 4: 43},
    "sym4": {1: 2, 2: 11, 3: 30, 4: 79},
}
RELATION_COUNTS = {"sym1^2": 5, "sym2-levelset": 10, "sym1-enveloping": 11,
                   "sym2-enveloping": 12}
# Failures this benchmark reports at the commit that introduced it.  They are
# counted in ``failed``; ``correct`` turns false only on any other failure.
# sym4, degree 4: one of the 79 kernel vectors is not invariant, because
# SparseEchelon.insert does not keep its rows fully reduced.
KNOWN_DEFECTS = frozenset({
    ("kernel sym4 degrees 1-4", "degree 4: 1 of 79 kernel vectors are not invariant")})

CHAIN_SPECS = ("sym1", "sym2", "sym1+sym0", "sym1^2")
WARM_LEVELS = ("0", "1", "generic")
SCALES = tuple(Fraction(n, d) for n in (1, -1, 2, -2, 3, -3) for d in (1, 2, 3)
               if Fraction(n, d).denominator == d)

G = None  # namespace of the imported gasymp modules


# ---------------------------------------------------------------------------
# set-up


def import_gasymp(times: int) -> list:
    """Import the package ``times`` times from scratch; the speed clock marks
    around each import."""
    global G
    marks = []
    for _ in range(times):
        for name in [n for n in sys.modules if n == "gasymp" or n.startswith("gasymp.")]:
            del sys.modules[name]
        start = SPEED.now()
        importlib.import_module("gasymp")
        mods = {name: importlib.import_module(f"gasymp.{name}") for name in MODULES}
        marks.append((start, SPEED.now()))
    G = argparse.Namespace(**mods)
    return marks


def parse_poly(table, text: str):
    """Parse the canonical printed form back into a polynomial; the round
    trip must reproduce the text exactly."""
    terms = {}
    for chunk in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        coeff = Fraction(-1 if chunk[0] == "-" else 1)
        exps = [0] * len(table.names)
        for factor in chunk.lstrip("+-").split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                var, _, power = factor.partition("^")
                exps[table.index(var)] += int(power or 1)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    poly = G.poly.Polynomial(table, terms)
    if G.poly.format_poly(poly) != text:
        raise ValueError(f"polynomial text does not round-trip: {text!r}")
    return poly


class Op:
    """One timed operation: ``run()`` is timed, ``check(output)`` is not and
    returns a list of problems (empty when the output is right)."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def analysis_op(spec: str, level: str, reference: dict | None = None) -> Op:
    def run():
        doc = G.report.analyze(G.report.RunConfig(spec, level=G.report.parse_level(level)))
        return doc, G.report.render_structured(doc)

    def check(output):
        doc, text = output
        if reference is not None:
            return [] if text == reference[(spec, level)] else [
                "report differs from the cold report for the same input"]
        return check_report(spec, level, doc)

    return Op(f"analyze {spec} level {level}", run, check)


def check_report(spec: str, level: str, doc: dict) -> list:
    """Generators invariant on the level set (and on each component), and
    termination status and certified degree as the suite expects."""
    inv = doc["invariants"]
    if level == "generic":
        return [] if "note" in inv else ["generic level computed invariants"]
    rep = G.reps.parse_rep(spec)
    table = rep.table_tv()
    deriv = G.reps.ga_derivation(rep, table)
    mu = G.moments.ga_moment(rep)
    problems = []

    def invariant_gens(ideal, gens, where):
        ring = G.invariants.QuotientRing(table, ideal, deriv)
        for text in gens:
            if not ring.is_invariant(parse_poly(table, text)):
                problems.append(f"{where}: generator {text} is not invariant")

    termination, least, comp_termination = EXPECTED_STATUS[(spec, level)]
    ls = inv["level_set"]
    invariant_gens(G.groebner.Ideal(table, [mu - table.scalar(G.report.parse_level(level))]),
                   ls["generators"], "level set")
    if ls["termination"] != termination:
        problems.append(f"termination {ls['termination']}, expected {termination}")
    if ls["certified_degree"] < least:
        problems.append(f"certified degree {ls['certified_degree']} below {least}")
    comps = inv.get("normalization_components")
    if (comps is not None) != (comp_termination is not None):
        problems.append("normalization components present/absent unexpectedly")
    for comp in comps or ():
        ideal = G.groebner.Ideal(table, [parse_poly(table, t) for t in comp["component"]])
        invariant_gens(ideal, comp["generators"], f"component {comp['component']}")
        if comp["termination"] != comp_termination:
            problems.append(f"component termination {comp['termination']}")
    return problems


def kernel_op(spec: str) -> Op:
    """``graded_kernel`` on the zero level of ``spec`` in each recorded
    degree, on one ring, as one operation."""
    dims = KERNEL_DIMS[spec]

    def run():
        ring = G.invariants.QuotientRing.level_set(G.reps.parse_rep(spec), 0)
        return ring, {d: G.invariants.graded_kernel(ring, d) for d in dims}

    def check(output):
        ring, kernels = output
        problems = []
        for degree, vectors in kernels.items():
            if len(vectors) != dims[degree]:
                problems.append(f"degree {degree}: {len(vectors)} kernel vectors, "
                                f"expected {dims[degree]}")
            bad = sum(1 for v in vectors if not ring.is_invariant(v))
            if bad:
                problems.append(f"degree {degree}: {bad} of {len(vectors)} kernel vectors "
                                "are not invariant")
        return problems

    return Op(f"kernel {spec} degrees {min(dims)}-{max(dims)}", run, check)


def presentation_cases():
    """(name, table, defining ideal generators, published generator table)."""
    parse_rep = G.reps.parse_rep
    cmp = G.comparison
    out = []
    rep = parse_rep("sym1^2")
    out.append(("sym1^2", rep.table_tv(), [], G.invariants.standard_sym1_invariants(rep)))
    rep = parse_rep("sym2")
    out.append(("sym2-levelset", rep.table_tv(), [G.moments.ga_moment(rep)],
                cmp.sym2_levelset_invariants(rep)))
    rep = parse_rep("sym1")
    out.append(("sym1-enveloping", rep.table_tw(), list(G.moments.sl2_moment_w(rep)),
                cmp.sym1_enveloping_invariants(rep)))
    rep = parse_rep("sym2")
    out.append(("sym2-enveloping", rep.table_tw(), list(G.moments.sl2_moment_w(rep)),
                cmp.sym2_enveloping_invariants(rep)))
    return out


def presentation_op(name, table, defining, gens, rng, variant=1) -> Op:
    """Tags t1..tn follow the published order, so the elimination order and
    hence the relation count do not depend on the seed; the seed shuffles
    the order the generators reach the ideal and rescales each of them."""
    tags = [f"t{i + 1}" for i in range(len(gens))]
    ext = table.extend(tags)
    scaled = [g * rng.choice(SCALES) for g in gens]
    order = list(range(len(gens)))
    rng.shuffle(order)
    graph = [table.lift(g, ext) for g in defining]
    graph += [ext.var(tags[i]) - table.lift(scaled[i], ext) for i in order]
    base = G.groebner.Ideal(table, defining)

    def run():
        return G.groebner.Ideal(ext, graph).eliminate(tags)

    def check(relations):
        """Each relation, with every t_i replaced by its generator, lies in
        the defining ideal; and the reduced basis has the recorded size."""
        problems = []
        if len(relations.gens) != RELATION_COUNTS[name]:
            problems.append(f"{len(relations.gens)} relations, expected {RELATION_COUNTS[name]}")
        assignment = {tag: table.lift(g, ext) for tag, g in zip(tags, scaled)}
        for rel in relations.gens:
            value = ext.project(relations.table.lift(rel, ext).substitute(assignment), table)
            if not base.member(value):
                problems.append(f"relation {G.poly.format_poly(rel)} does not hold")
        return problems

    return Op(f"eliminate {name} variant {variant}", run, check)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs built from the seed plus one pass over them."""

    fresh_cache_per_op = False

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def make_ops(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Set-up beyond input generation (none by default)."""

    def run_pass(self, ops) -> list:
        """Run each op once, timed; returns [(op, reference seconds, output
        or exc)]."""
        out = []
        cache_mod = G.cache
        for op in ops:
            if self.fresh_cache_per_op:
                cache_mod.set_active_cache(cache_mod.DiskCache(tempfile.mkdtemp(dir=self.tmp)))
            # a full collection resets the collector's counters, so the
            # collections an operation triggers do not depend on the ops
            # before it
            gc.collect()
            start = SPEED.now()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                result = exc
            out.append((op, (start, SPEED.now()), result))
            if self.fresh_cache_per_op:
                cache_mod.set_active_cache(None)
        return [(op, SPEED.ref_seconds(*marks), result) for op, marks, result in out]


class Chain(Workload):
    fresh_cache_per_op = True

    def make_ops(self):
        ops = [analysis_op(spec, "0") for spec in CHAIN_SPECS]
        ops += [kernel_op(spec) for spec in KERNEL_DIMS]
        random.Random(self.seed).shuffle(ops)
        return ops


class Presentation(Workload):
    # Seeded variants per case in a pass.  Three sym1-enveloping variants put
    # the median of the six latencies between two of them, not between a
    # 0.1 s and a 1 s case, where a single sample would decide it.
    VARIANTS = {"sym1^2": 1, "sym2-levelset": 1, "sym1-enveloping": 3, "sym2-enveloping": 1}

    def make_ops(self):
        rng = random.Random(self.seed)
        ops = [presentation_op(*case, rng, k + 1) for case in presentation_cases()
               for k in range(self.VARIANTS[case[0]])]
        rng.shuffle(ops)
        return ops


class Warm(Workload):
    def make_ops(self):
        pairs = [(spec, level) for spec in CHAIN_SPECS for level in WARM_LEVELS]
        random.Random(self.seed).shuffle(pairs)
        self.reference = {}
        return [analysis_op(spec, level, self.reference) for spec, level in pairs]

    def prepare(self):
        """Fill a private cache with one cold analysis of every input and keep
        the cold reports as the references the warm passes must match."""
        cache_mod = G.cache
        cache_mod.set_active_cache(cache_mod.DiskCache(tempfile.mkdtemp(dir=self.tmp)))
        self.fill = []
        for spec in CHAIN_SPECS:
            for level in WARM_LEVELS:
                doc, text = analysis_op(spec, level).run()
                self.fill.append((spec, level, doc))
                self.reference[(spec, level)] = text


WORKLOADS = {"chain": Chain, "presentation": Presentation, "warm": Warm}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []  # (label, problems)

    def check(self, results, tracer=None) -> None:
        if tracer is not None:
            tracer.enabled = False
        try:
            for op, _seconds, output in results:
                self.attempted += 1
                if isinstance(output, Exception):
                    problems = [f"raised {type(output).__name__}: {output}"]
                else:
                    problems = op.check(output)
                if problems:
                    self.failures.append((op.label, problems))
        finally:
            if tracer is not None:
                tracer.enabled = True


def timed_phase(workload, ops, seconds, tally, tracer=None) -> tuple:
    """Passes until ``seconds`` of wall time have elapsed; (pass times, op
    label -> latencies), in reference seconds.  A pass time is the sum of its
    operations' latencies, so set-up between operations is not in it."""
    passes, latencies = [], {}
    start = clock()
    while True:
        results = workload.run_pass(ops)
        passes.append(sum(seconds_ for _op, seconds_, _out in results))
        for op, seconds_, _out in results:
            latencies.setdefault(op.label, []).append(seconds_)
        tally.check(results, tracer)
        if clock() - start >= seconds:
            return passes, latencies


def percentile_ms(values, q: int) -> float:
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def run(args) -> dict:
    os.makedirs(TMP_BASE, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_BASE)
    os.environ["GASYMP_CACHE_DIR"] = os.path.join(tmp, "env-cache")
    SPEED.start()
    try:
        return measure(args, tmp)
    finally:
        SPEED.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass


def measure(args, tmp) -> dict:
    setup_start = clock()
    import_s = statistics.median(SPEED.ref_seconds(*m) for m in import_gasymp(9))
    workload = WORKLOADS[args.workload](args.seed, tmp)
    gen_samples = []
    for _ in range(5):
        start = SPEED.now()
        ops = workload.make_ops()
        gen_samples.append(SPEED.ref_seconds(start, None))
    start = SPEED.now()
    workload.prepare()
    prepare_s = SPEED.ref_seconds(start, None)
    setup_s = import_s + statistics.median(gen_samples) + prepare_s
    print(f"setup (reference s): import {import_s:.4f} (median of 9), inputs "
          f"{statistics.median(gen_samples):.6f} (median of 5), prepare {prepare_s:.3f}; "
          f"set-up phase took {clock() - setup_start:.3f} s of wall time")

    tally = Tally()
    if args.workload == "warm":
        # the cold fill reports are the warm references, so check them too
        for spec, level, doc in workload.fill:
            tally.attempted += 1
            problems = check_report(spec, level, doc)
            if problems:
                tally.failures.append((f"analyze {spec} level {level}", problems))
    passes, per_op = timed_phase(workload, ops, args.seconds, tally)
    for label, samples in per_op.items():
        print(f"op {label}: median {statistics.median(samples) * 1000:.3f} ms "
              f"over {len(samples)}")
    latencies = [x for samples in per_op.values() for x in samples]
    metrics = {}
    if args.trace:
        tracer = Tracer(lambda: clock() - SPEED.spent)
        tracer.install()
        start = SPEED.now()
        try:
            traced_passes, _ = timed_phase(workload, ops, args.seconds, tally, tracer)
        finally:
            tracer.uninstall()
        end = SPEED.now()
        # self times to reference seconds, by the phase's mean speed
        scale = SPEED.ref_seconds(start, end) / ((end[0] - start[0]) - (end[1] - start[1]))
        for name, (value, unit) in tracer.metrics(len(traced_passes), scale).items():
            metrics[name] = {"value": value, "unit": unit}
        untraced = statistics.median(passes)
        traced = statistics.median(traced_passes)
        metrics["trace.pass_ref_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_pass_ref_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_ref_s"] = {"value": traced - untraced, "unit": "s"}
        if set(metrics) != {name for name, _unit, _better in per_layer_names()}:
            raise RuntimeError("traced metrics differ from the per-layer list")
        print(f"traced passes: {len(traced_passes)}, untraced passes: {len(passes)}")
    else:
        values = {
            "pass_ref_s": statistics.median(passes),
            "op_p50_ref_ms": percentile_ms(latencies, 50),
            "op_p90_ref_ms": percentile_ms(latencies, 90),
            "ok_frac": 1 - len(tally.failures) / tally.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"passes: {len(passes)}; op latency samples: {len(latencies)}")

    for label, problems in tally.failures:
        known = " (known defect)" if is_known(label, problems) else ""
        print(f"FAILED{known}: {label}: {'; '.join(problems)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    unexpected = [label for label, problems in tally.failures if not is_known(label, problems)]
    return {"correct": not unexpected, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def is_known(label: str, problems: list) -> bool:
    return all((label, problem) in KNOWN_DEFECTS for problem in problems)


def smoke() -> int:
    """Show that the tracer counts calls made inside the package and that the
    output checks count wrong results as failed.  Exit 0 when all hold."""
    import_gasymp(1)
    results = []
    original_mul = G.poly.Polynomial.__mul__
    original_nullspace = G.invariants.sparse_nullspace
    results.append(("untraced code carries no wrappers",
                    not hasattr(original_mul, "__gasymp_trace__")))
    tracer = Tracer()
    tracer.install()
    try:
        # graded_kernel reaches sparse_nullspace through invariants' own
        # from-import, and Ideal.normal_form calls reduce_full and, through
        # Ideal.groebner, buchberger as module globals of groebner
        ring = G.invariants.QuotientRing.level_set(G.reps.parse_rep("sym2"), 0)
        G.invariants.graded_kernel(ring, 2)
    finally:
        tracer.uninstall()
    for name in ("linalg.sparse_nullspace", "linalg.echelon_insert", "groebner.reduce_full",
                 "groebner.buchberger", "invariants.nf", "poly.mul"):
        results.append((f"tracer counted internal calls to {name} "
                        f"({tracer.calls[name]})", tracer.calls[name] > 0))
    results.append(("buchberger calls are attributed to Ideal.groebner",
                    tracer.buchberger_under_groebner > 0))
    results.append(("uninstall restores the originals",
                    G.poly.Polynomial.__mul__ is original_mul
                    and G.invariants.sparse_nullspace is original_nullspace))

    case = next(c for c in presentation_cases() if c[0] == "sym1^2")
    op = presentation_op(*case, random.Random(1))
    good = op.run()
    wrong = G.groebner.Ideal(good.table, [good.gens[0] + good.table.var("t1")]
                             + list(good.gens[1:]))
    short = G.groebner.Ideal(good.table, good.gens[1:])
    tally = Tally()
    tally.check([(op, 0.0, good), (op, 0.0, wrong), (op, 0.0, short)])
    results.append(("right relations pass; a wrong relation and a missing one "
                    "are each counted as failed",
                    tally.attempted == 3 and [f[0] for f in tally.failures] == [op.label] * 2))

    reference = {}
    op = analysis_op("sym1", "1", reference)
    doc, text = op.run()
    reference[("sym1", "1")] = text.replace("true", "false", 1)
    tally = Tally()
    tally.check([(op, 0.0, (doc, text))])
    results.append(("a warm report differing from its cold reference is counted as failed",
                    len(tally.failures) == 1))

    (label, known), = KNOWN_DEFECTS
    results.append(("only the listed sym4 problem counts as a known defect",
                     is_known(label, [known])
                     and not is_known(label, [known, "degree 3: 1 of 30 kernel vectors "
                                                    "are not invariant"])
                     and not is_known("kernel sym3 degrees 1-4", [known])))
    for message, ok in results:
        print(f"{'ok' if ok else 'FAILED'}: {message}")
    return 0 if all(ok for _m, ok in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check that the tracer sees internal calls and that "
                             "the output checks catch wrong results")
    args = parser.parse_args(argv)
    if not (SRC / "gasymp" / "__init__.py").is_file():
        print(f"perfbench: no gasymp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
