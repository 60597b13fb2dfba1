"""One unit of benchmark work, run in a fresh process.

    python3 perfbench/worker.py '{"phase": "sweep", "seed": 1, "unit": 0,
                                  "traced": false, "setup_only": false}'

with `src` on PYTHONPATH.  The worker imports k3pi1, builds its inputs
from the seed, prints `ready`, runs the measured calls, checks every
answer and prints one JSON line.  An untraced worker gives its timings
at the reference speed of perfbench/speed.py.  A traced worker wraps the
package's public functions first, reports per-layer figures, and takes
its timings as measured.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from contextlib import nullcontext

import inputs
import oracles
import speed
from stats import percentile
from tracer import END, ID, NAME, OP, RAISED, START, TAG, Tracer, self_times

import k3pi1.kodaira as kodaira
import k3pi1.lattice as lattice
import k3pi1.pi1 as pi1
import k3pi1.surface as surface
from k3pi1 import AdeConfig, Decoration, IntegerGram, KodairaType, MonodromyRep, NormalK3Input

SWEEP_BUDGET = 24
SWEEP_TOTAL = 10_487_956
SWEEP_COUNTS = {"spherical_or_bad": 10_487_952, "euclidean": 4, "hyperbolic": 0}
EUCLIDEAN = {(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)}
OUTCOMES = {"plain": 135, "I": 7_337, "Istar": 23_774}
SWEEP_ITEMS = 31_197
CONE_ITEMS = 11_708

# (module, attribute, span name, tag function, aggregate): each function
# is wrapped where its callers look it up.  local_euler_contribution runs
# about 10^5 times per sweep, so it is counted instead of spanned.
HOOKS = (
    (surface, "trichotomy_sweep", "surface.trichotomy_sweep", None, False),
    (surface, "analyze", "surface.analyze", None, False),
    (surface, "decoration_outcomes", "surface.decoration_outcomes", lambda t: oracles.family(t.base), False),
    (surface, "local_euler_contribution", "dynkin.local_euler_contribution", None, True),
    (surface, "classify", "orbifold.classify", None, False),
    (surface, "orbifold_euler_number", "surface.orbifold_euler_number", None, False),
    (surface, "validate_k3_fibration", "kodaira.validate_k3_fibration", None, False),
    (surface, "validate_representation", "pi1.validate_representation", None, False),
    (surface, "coinvariant_quotient", "pi1.coinvariant_quotient", None, False),
    (kodaira, "validate_decoration", "kodaira.validate_decoration", None, False),
    (kodaira, "recognize_ade", "dynkin.recognize_ade", None, False),
    (lattice, "meyer_gate", "lattice.meyer_gate", None, False),
    (lattice, "isotropic_search", "lattice.isotropic_search", None, False),
    (lattice, "signature", "lattice.signature", None, False),
    (pi1, "smith_normal_form", "lattice.smith_normal_form", None, False),
)


class Checks:
    """Counts operations and the ones whose answer was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def operation(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def _fiber(base: str, n):
    return KodairaType(base) if n is None else KodairaType(base, n)


# ----------------------------------------------------------------------
# sweep24: trichotomy_sweep(24), cold then warm


def prepare_sweep(rng, unit):
    return None


def run_sweep(_, tracer, out, sampler):
    results = []
    for label in ("cold", "warm"):
        with tracer.operation("sweep", label) if tracer else nullcontext():
            mark, start = sampler.mark(), sampler.clock()
            res = surface.trichotomy_sweep(SWEEP_BUDGET)
            took = (sampler.clock() - start) / 1e9
            out[f"sweep_{label}_s"] = took * sampler.factor(mark, sampler.mark())
        results.append(res)
    return results


def sweep_tables(budget: int):
    """Outcome counts per fiber family and the (Euler number, m) of every
    nontrivial outcome, read from the public decoration_outcomes tables."""
    outcomes = dict.fromkeys(OUTCOMES, 0)
    items = []
    for base, n in oracles.sweep_fiber_types(budget):
        table = kodaira.decoration_outcomes(_fiber(base, n))
        outcomes[oracles.family(base)] += len(table)
        items += [(oracles.fiber_euler(base, n), o.m) for o in table if o.config.entries]
    return outcomes, items


def check_sweep(_, results, out, checks: Checks):
    outcomes, items = sweep_tables(SWEEP_BUDGET)
    gf = oracles.gf_total([e for e, _ in items], SWEEP_BUDGET)
    out["outcomes"] = outcomes
    out["sweep_items"] = len(items)
    out["cone_items"] = sum(1 for _, m in items if m >= 2)
    table_problems = []
    if outcomes != OUTCOMES:
        table_problems.append(f"outcome table sizes {outcomes}")
    if (out["sweep_items"], out["cone_items"]) != (SWEEP_ITEMS, CONE_ITEMS):
        table_problems.append(f"items {out['sweep_items']}, cone items {out['cone_items']}")
    if gf != SWEEP_TOTAL:
        table_problems.append(f"generating-function total {gf}")

    for label, res in zip(("cold", "warm"), results):
        problems = list(table_problems)
        if res.total != SWEEP_TOTAL or res.total != gf:
            problems.append(f"total {res.total}")
        if res.counts != SWEEP_COUNTS:
            problems.append(f"counts {res.counts}")
        if res.hyperbolic or not res.consistent:
            problems.append("hyperbolic instances or violations")
        if {tuple(i.cone_orders) for i in res.euclidean} != EUCLIDEAN or len(res.euclidean) != 4:
            problems.append("euclidean signatures")
        for inst in res.euclidean:
            types, cones = [], []
            for _, m, cfg, count in inst.outcomes:
                types += [(lab[0], int(lab[1:])) for lab in cfg] * count
                cones += [m] * count if m >= 2 else []
            r = sum(n for _, n in types)
            if (r, oracles.e_orb(types), tuple(sorted(cones))) != (inst.r, inst.e_orb, tuple(inst.cone_orders)):
                problems.append(f"euclidean instance invariants {inst.describe()}")
            if r < 16 or inst.e_orb != 0:
                problems.append(f"euclidean instance with r={r}, e_orb={inst.e_orb}")
        out["classes"] = res.total
        checks.operation(problems, f"sweep {label}")


def sweep_layers(tracer, selfs, out):
    spans, layers = tracer.spans, {}
    ops = {s[TAG]: s[OP] for s in spans if s[NAME] == "sweep"}
    cold, warm = ops["cold"], ops["warm"]

    def of(name, op):
        return [s for s in spans if s[NAME] == name and s[OP] == op]

    recog = of("dynkin.recognize_ade", cold)
    layers["dynkin.recognize_calls"] = len(recog)
    layers["dynkin.recognize_s"] = _total_s(recog)
    count, ns = tracer.aggregates[("dynkin.local_euler_contribution", warm)]
    layers["dynkin.euler_contrib_calls"] = count
    layers["dynkin.euler_contrib_s"] = ns / 1e9
    for fam in OUTCOMES:
        layers[f"kodaira.outcomes_s.{fam}"] = _total_s(
            [s for s in of("surface.decoration_outcomes", cold) if s[TAG] == fam])
        layers[f"kodaira.outcomes.{fam}"] = out["outcomes"][fam]
    layers["kodaira.validate_calls"] = len(of("kodaira.validate_decoration", cold))
    classify = of("orbifold.classify", warm)
    layers["orbifold.classify_calls"] = len(classify)
    layers["orbifold.classify_s"] = _total_s(classify)
    (walk,) = of("surface.trichotomy_sweep", warm)
    layers["surface.walk_s"] = selfs[walk[ID]] / 1e9
    layers["surface.classes_per_s"] = out["classes"] / ((walk[END] - walk[START]) / 1e9)
    layers["surface.sweep_items"] = out["sweep_items"]
    layers["surface.cone_items"] = out["cone_items"]
    return layers


# ----------------------------------------------------------------------
# meyer: a batch of meyer_gate calls


def prepare_meyer(rng, unit):
    batch = inputs.meyer_batch(rng)
    return [(IntegerGram.from_rows(item["rows"]), item) for item in batch]


def run_meyer(batch, tracer, out, sampler):
    reports, calls = [], []
    clock, mark = sampler.clock, sampler.mark
    start = clock()
    for gram, item in batch:
        with tracer.operation("meyer", item["kind"]) if tracer else nullcontext():
            m0, t0 = mark(), clock()
            reports.append(lattice.meyer_gate(gram, item["bound"]))
            calls.append((clock() - t0, m0, mark()))
    out["meyer_s"] = (clock() - start) / 1e9 * sampler.factor()
    out["search_ms"] = [ns / 1e6 * sampler.near(m0, m1) for ns, m0, m1 in calls]
    return reports


def check_meyer(batch, reports, out, checks: Checks):
    found = exhausted = 0
    for (_, item), rep in zip(batch, reports):
        rows, bound, vec = item["rows"], item["bound"], rep.vector
        pos, neg = item["sig"]
        problems = []
        if tuple(rep.signature) != (pos, neg, 0):
            problems.append(f"signature {rep.signature}")
        if rep.hypotheses_hold != (pos > 0 and neg > 0 and pos + neg >= 5):
            problems.append("hypotheses flag")
        if vec is None:
            exhausted += 1
        else:
            found += 1
            if not any(vec) or max(map(abs, vec)) > bound or oracles.evaluate(rows, vec) != 0:
                problems.append(f"vector {vec} is not isotropic within the bound")
        expect = item["expect"]
        if isinstance(expect, list):
            if vec is None or list(vec) != expect:
                problems.append(f"vector {vec}, full grid gives {expect}")
        elif (vec is None) != (expect == "exhausted"):
            problems.append(f"expected {expect}")
        checks.operation(problems, f"meyer_gate {item['kind']} {rows}")
    out["found"], out["exhausted"] = found, exhausted


def meyer_layers(tracer, selfs, out):
    spans = tracer.spans
    search = [s for s in spans if s[NAME] == "lattice.isotropic_search"]
    sig = [s for s in spans if s[NAME] == "lattice.signature"]
    return {
        "lattice.isotropic_s": sum(selfs[s[ID]] for s in search) / 1e9,
        "lattice.signature_s": _total_s(sig),
        "lattice.signature_calls": len(sig),
        "lattice.found": out["found"],
        "lattice.exhausted": out["exhausted"],
    }


# ----------------------------------------------------------------------
# analyze: a stream of single inputs


def _input(item):
    if item["kind"] == "bare":
        return NormalK3Input.bare(AdeConfig.from_labels(item["labels"]))
    decorations = [Decoration(_fiber(b, n), frozenset(removed)) for b, n, removed in item["fibers"]]
    mono = None
    if item["monodromy"] is not None:
        mono = MonodromyRep(tuple(item["monodromy"]), tuple(d.fiber for d in decorations))
    return NormalK3Input.fibered(decorations, mono)


def _tag(item):
    if item["kind"] == "bare":
        rank = sum(int(lab[1:]) for lab in item["labels"])
        return "bare.gate" if rank <= oracles.RANK_GATE else "bare.rank"
    if item["kind"] == "fibered":
        return "monodromy" if item["monodromy"] is not None else "fibered"
    return "invalid"


def prepare_analyze(rng, unit):
    return [(_input(item), item, _tag(item)) for item in inputs.analyze_stream(rng, unit)]


def run_analyze(stream, tracer, out, sampler):
    results, accepted, rejected = [], [], []
    clock, mark = sampler.clock, sampler.mark
    start = clock()
    for inp, item, tag in stream:
        with tracer.operation("analyze", tag) if tracer else nullcontext():
            m0, t0 = mark(), clock()
            try:
                res = surface.analyze(inp)
            except ValueError as exc:
                res = exc
            call = (clock() - t0, m0, mark())
        (rejected if item["kind"] == "invalid" else accepted).append(call)
        results.append(res)
    out["analyses_per_s"] = len(stream) / ((clock() - start) / 1e9 * sampler.factor())
    out["analyze_us"] = [ns / 1e3 * sampler.near(m0, m1) for ns, m0, m1 in accepted]
    out["reject_us"] = [ns / 1e3 * sampler.near(m0, m1) for ns, m0, m1 in rejected]
    out["fiber_cache_entries"] = kodaira.fiber_data.cache_info().currsize
    return results


def _expected_fibered(item):
    """Oracle verdict for a fibered input: an error class name, or the
    report fields the package must produce."""
    total = sum(oracles.fiber_euler(b, n) for b, n, _ in item["fibers"])
    per_fiber = []
    for b, n, removed in item["fibers"]:
        outcome = oracles.decoration_outcome(b, n, removed)
        if isinstance(outcome, str):
            return outcome
        per_fiber.append(outcome)
    if total != oracles.K3_EULER:
        return "EulerSumMismatch"
    types = [t for _, ts in per_fiber for t in ts]
    cones = [m for (m, _), (_, _, removed) in zip(per_fiber, item["fibers"]) if removed]
    kind, order = oracles.classify_cones(cones)
    quotient = None
    if item["monodromy"] is not None and kind == "spherical_or_bad" and order == 1:
        quotient = [2, 2] if item["fibers"][0][0] == "I*" else []
    return {
        "r": sum(n for _, n in types),
        "e_orb": oracles.e_orb(types),
        "labels": oracles.labels(types),
        "m": [m for m, _ in per_fiber],
        "cone_orders": sorted(m for m in cones if m > 1),
        "classification": (kind, order),
        "verdict": oracles.VERDICT_OF_CLASS[kind],
        "quotient": quotient,
    }


def check_analyze(stream, results, out, checks: Checks):
    for (_, item, _), res in zip(stream, results):
        problems = []
        if item["kind"] == "bare":
            types = [(lab[0], int(lab[1:])) for lab in item["labels"]]
            if isinstance(res, ValueError):
                problems.append(f"rejected: {res}")
            elif (list(res.config.labels), res.r, res.e_orb, res.verdict and res.verdict.kind) != (
                oracles.labels(types), sum(n for _, n in types), oracles.e_orb(types),
                oracles.bare_verdict(types),
            ):
                problems.append(f"report {res.to_json_dict()}")
        else:
            want = _expected_fibered(item)
            if isinstance(want, str):
                if not isinstance(res, ValueError) or type(res).__name__ != want:
                    problems.append(f"expected {want}, got {type(res).__name__}: {res}")
                elif want == "EulerSumMismatch" and res.actual != sum(
                        oracles.fiber_euler(b, n) for b, n, _ in item["fibers"]):
                    problems.append(f"reported Euler sum {res.actual}")
            elif isinstance(res, ValueError):
                problems.append(f"rejected: {res}")
            else:
                got = {
                    "r": res.r,
                    "e_orb": res.e_orb,
                    "labels": list(res.config.labels),
                    "m": [f.m for f in res.fibers],
                    "cone_orders": list(res.cone_orders),
                    "classification": (res.classification.kind, res.classification.order),
                    "verdict": res.verdict.kind,
                    "quotient": (None if res.monodromy_quotient is None
                                 else list(res.monodromy_quotient.invariant_factors)),
                }
                if got != want:
                    problems.append(f"got {got}, expected {want}")
        checks.operation(problems, f"analyze {item}")


def analyze_layers(tracer, selfs, out):
    spans = tracer.spans
    op_tag = {s[OP]: s[TAG] for s in spans if s[NAME] == "analyze"}

    def us(values):
        return percentile(values, 50) / 1e3 if values else 0.0

    def durations(name, pred=lambda s: True):
        return [s[END] - s[START] for s in spans if s[NAME] == name and pred(s)]

    layers = {
        "kodaira.validate_fibration_us.accept": us(durations("kodaira.validate_k3_fibration", lambda s: not s[RAISED])),
        "kodaira.validate_fibration_us.reject": us(durations("kodaira.validate_k3_fibration", lambda s: s[RAISED])),
        "kodaira.fiber_cache_entries": out["fiber_cache_entries"],
        "lattice.snf_us": us(durations("lattice.smith_normal_form")),
        "pi1.validate_us": us(durations("pi1.validate_representation")),
        "pi1.quotient_us": us(durations("pi1.coinvariant_quotient")),
    }
    analyze = [s for s in spans if s[NAME] == "surface.analyze" and not s[RAISED]]
    for kind, tags in (("bare", ("bare.gate", "bare.rank")), ("fibered", ("fibered",)),
                       ("monodromy", ("monodromy",))):
        layers[f"surface.analyze_us.{kind}"] = us([selfs[s[ID]] for s in analyze if op_tag[s[OP]] in tags])
    gate_ops = {op for op, tag in op_tag.items() if tag == "bare.gate"}
    euler = [s for s in spans if s[NAME] == "surface.orbifold_euler_number" and s[OP] in gate_ops]
    layers["surface.euler_calls_per_analyze"] = len(euler) / len(gate_ops)
    return layers


def _total_s(spans) -> float:
    return sum(s[END] - s[START] for s in spans) / 1e9


PHASES = {
    "sweep": (prepare_sweep, run_sweep, check_sweep, sweep_layers),
    "meyer": (prepare_meyer, run_meyer, check_meyer, meyer_layers),
    "analyze": (prepare_analyze, run_analyze, check_analyze, analyze_layers),
}


def main() -> None:
    job = json.loads(sys.argv[1])
    prepare, run, check, layers = PHASES[job["phase"]]
    state = prepare(random.Random(f"{job['phase']}:{job['seed']}:{job['unit']}"), job["unit"])
    tracer = None
    if job["traced"]:
        tracer = Tracer()
        for module, attr, name, tag, aggregate in HOOKS:
            tracer.wrap(module, attr, name, tag, aggregate)
    print("ready", flush=True)
    if job["setup_only"]:
        print(json.dumps({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
        return
    out: dict = {}
    # probes would land inside traced spans, so traced workers go without
    with speed.Unsampled() if tracer else speed.Sampler() as sampler:
        start = sampler.clock()
        results = run(state, tracer, out, sampler)
        out["work_s"] = (sampler.clock() - start) / 1e9
    if sampler.samples:
        out["probe_ns"] = speed.level(sampler.samples)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.unwrap_all()
    checks = Checks()
    check(state, results, out, checks)
    if tracer:
        out["layers"] = layers(tracer, self_times(tracer.spans), out)
        os.makedirs(os.path.dirname(job["spans"]), exist_ok=True)
        tracer.dump(job["spans"])
    out.update(attempted=checks.attempted, failed=checks.failed, messages=checks.messages)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
