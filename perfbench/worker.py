"""The workload process: builds one workload's jetstar state, then answers
operations, one JSON request per stdin line and one JSON reply per stdout
line.  It is started by run.py; run it by hand as

    PYTHONPATH=src python3 perfbench/worker.py <workload> <trace 0|1> [trace-file]

It prints ``{"ready": ...}`` when the first operation can be served.  A
reply carries the operation's canonical output, its time in seconds
(``op_s``, checks excluded), the time its checks took (``check_s``) and the
failed checks.  Checks read the rendered output, so a wrong rendering fails
them.  A request with ``"corrupt": true`` alters the output before it is
checked, which is how the smoke tests show that a wrong output is caught.
Every reply also carries the process's peak resident memory so far.  The
request ``{"kind": "quit"}`` is answered with, in a traced run, the
per-layer metrics; then the process exits.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import sys
import time
from contextlib import nullcontext

import gen
from spans import Tracer

from jetstar import derham, fedosov, homology, parsing, scalars, whitney
from jetstar.elements import TruncationPolicy
from jetstar.verify import WHITNEY_CONFIGS
from jetstar.weyl import PoissonTensor

# Betti numbers of the built-in subsets: one class in degree 0 per component.
COMPONENTS = {"point": 1, "axis": 1, "cross": 1, "two-points": 2, "plane-in-r4": 1}
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


def _no_span(name):
    return nullcontext()


def parse(text, policy):
    return parsing.parse_element(text, policy)


# ----------------------------------------------------------------------
# fedosov-star


class FedosovStar:
    def __init__(self, span):
        self.policy = TruncationPolicy(1, **gen.FEDOSOV_POLICY)
        conn, pt = fedosov.load_connection_json(gen.FEDOSOV_CONNECTION)
        self.fd = fedosov.build_A(conn, pt, self.policy)

    def star(self, req):
        f = parse(req["f"], self.policy)
        g = parse(req["g"], self.policy)
        fedosov.quantize(f, self.fd)
        fedosov.quantize(g, self.fd)
        series = fedosov.star(f, g, self.fd)
        return {"star": series.to_str()}, (f, g, series)

    def check_star(self, req, out, ctx):
        f, g, series = ctx
        errors = []
        rendered = parse(out["star"], self.policy)
        if rendered != series:
            errors.append("rendered star product does not parse back to the product")
        if rendered.hbar_coefficient(0) != f.mul(g, self.policy).hbar_coefficient(0):
            errors.append("c_0(f, g) is not the pointwise product")
        for name, operand in (("f", f), ("g", g)):
            if fedosov.symbol(fedosov.quantize(operand, self.fd)) != operand:
                errors.append(f"symbol(quantize({name})) != {name}")
        return errors


# ----------------------------------------------------------------------
# quotient-star


class QuotientStar:
    def __init__(self, span):
        self.envs = {}
        for name in gen.QUOTIENT_SUBSETS:
            with span("whitney.setup"):
                cfg = WHITNEY_CONFIGS[name]
                subset = whitney.builtin_subset(name)
                n = subset.dim // 2
                policy = TruncationPolicy(n, cfg["jet"], 2 * cfg["hbar"] + 2, cfg["hbar"])
                pt = PoissonTensor.darboux(n)
                fd = fedosov.build_A(fedosov.ConnectionInput.flat(n), pt, policy)
                walg = whitney.WhitneyAlgebra(subset, policy)
                walg.unit_class()
                walg.flat_basis(cfg["flat_order"], cfg["flat_deg"])
            self.envs[name] = (cfg, policy, fd, walg)

    def product(self, req):
        cfg, policy, fd, walg = self.envs[req["subset"]]
        f = walg.project(parse(req["f"], policy))
        g = walg.project(parse(req["g"], policy))
        result = f.star(g, fd)
        return {"rep": result.rep.to_str()}, (f, g, result)

    def check_product(self, req, out, ctx):
        f, g, result = ctx
        cfg, policy, fd, walg = self.envs[req["subset"]]
        errors = []
        rendered = parse(out["rep"], policy)
        if rendered != result.rep:
            errors.append("rendered representative does not parse back")
        # classes are equal iff their jet data are; comparing jet data skips
        # the section solve that project() would add
        jets = walg.evaluator().evaluate
        if jets(rendered.hbar_coefficient(0)) != jets(f.rep.mul(g.rep, policy)):
            errors.append("c_0 class is not the pointwise product class")
        return errors

    def stability(self, req):
        cfg, policy, fd, walg = self.envs[req["subset"]]
        report = whitney.verify_ideal_stability(
            fd, walg, random.Random(req["rng_seed"]), 1,
            cfg["flat_order"], cfg["flat_deg"], cfg["other_deg"],
        )
        return report, None

    def check_stability(self, req, out, ctx):
        cfg, policy, fd, walg = self.envs[req["subset"]]
        orders = [k for k in range(policy.hbar_order + 1) if cfg["flat_order"] - 2 * k >= 0]
        errors = []
        if out.get("passed") is not True or out.get("failures") != []:
            errors.append(f"ideal stability failed: {out.get('failures')}")
        if out.get("checks") != 2 * len(orders):
            errors.append(f"expected {2 * len(orders)} flatness checks, got {out.get('checks')}")
        if out.get("subset") != req["subset"]:
            errors.append("report names another subset")
        return errors


# ----------------------------------------------------------------------
# homology-tables


class HomologyTables:
    def __init__(self, span):
        with open(SPEC_PATH, encoding="utf-8") as handle:
            self.known_hochschild = json.load(handle)["known"]["hochschild_dims_point_7"]
        self.pts = {n: PoissonTensor.darboux(n) for n in (1, 2)}
        self.algebras = {}
        pt = self.pts[1]
        for name in ("point", "axis"):
            policy = TruncationPolicy(1, 8, 4, 1)
            walg = whitney.WhitneyAlgebra(whitney.builtin_subset(name), policy)
            fd = fedosov.build_A(fedosov.ConnectionInput.flat(1), pt, policy)
            self.algebras[f"{name}-comm"] = homology.FiniteAlgebra(walg, hbar_max=1, x_cap=2)
            self.algebras[f"{name}-def"] = homology.FiniteAlgebra(
                walg, hbar_max=1, fd=fd, total_cap=3)
        policy7 = TruncationPolicy(1, 4, 4, 1)
        walg7 = whitney.WhitneyAlgebra(whitney.builtin_subset("point"), policy7)
        fd7 = fedosov.build_A(fedosov.ConnectionInput.flat(1), pt, policy7)
        self.point7 = homology.FiniteAlgebra(walg7, hbar_max=1, fd=fd7, total_cap=2)

    def table(self, req):
        subset = whitney.builtin_subset(req["subset"])
        n = subset.dim // 2
        policy = TruncationPolicy(n, req["jet"], 2, 1)
        betti = derham.cohomology_dims(subset, policy)
        duality = derham.duality_table(subset, self.pts[n], policy)
        return {"betti": betti, "duality": [list(row) for row in duality]}, None

    def check_table(self, req, out, ctx):
        dim = gen.SUBSET_DIMS[req["subset"]]
        known = [COMPONENTS[req["subset"]]] + [0] * dim
        errors = []
        if out["betti"] != known:
            errors.append(f"betti {out['betti']} != {known}")
        expected = [[q, known[dim - q], known[dim - q]] for q in range(dim + 1)]
        if out["duality"] != expected:
            errors.append(f"duality table {out['duality']} != {expected}")
        return errors

    def _chain(self, algebra, req):
        terms = {}
        for slots, (re, im) in req["terms"]:
            key = tuple(algebra.element_index(tuple(s[:-1]), s[-1]) for s in slots)
            terms[key] = scalars.Scalar.from_rational_strings(re, im)
        return homology.ChainVector(req["q"], terms, normalized=True)

    def chain(self, req):
        algebra = self.algebras[req["algebra"]]
        identity = req["identity"]
        if identity == "e1":
            walg = algebra.walg
            poly = parse(req["poly"], walg.policy)
            form = derham.WhitneyForm(walg, 1, algebra.x_cap - 1, [{(req["direction"],): poly}])
            _, report = homology.e1_probe(form, algebra)
            return {"identity": identity, "delta_zero": report["delta_zero"],
                    "kappa": report["kappa"], "matched": report["matched"]}, None
        chain = self._chain(algebra, req)
        b, big_b = homology.hochschild_b, homology.connes_B
        if identity == "b2":
            first = b(chain, algebra)
            residual = b(first, algebra)
        elif identity == "B2":
            first = big_b(chain, algebra)
            residual = big_b(first, algebra)
        elif identity == "bB":
            first = big_b(chain, algebra)
            residual = b(first, algebra) + big_b(b(chain, algebra), algebra)
        else:  # muB: mu(B c) = d(mu c)
            first = homology.mu(big_b(chain, algebra), algebra)
            residual = first - derham.d(homology.mu(chain, algebra))
        return {"identity": identity, "first_terms": _size(first),
                "residual_terms": _size(residual)}, None

    def check_chain(self, req, out, ctx):
        if out.get("identity") != req["identity"]:
            return ["reply names another identity"]
        if req["identity"] == "e1":
            if out["delta_zero"] is True and out["matched"] is True and out["kappa"] is None:
                return []
            if out["delta_zero"] is False and out["kappa"] == "-i":
                return []
            return [f"first-page constant {out['kappa']!r} is not -i"]
        if out["residual_terms"] != 0:
            return [f"{req['identity']} identity leaves {out['residual_terms']} terms"]
        return []

    def hochschild(self, req):
        report = homology.hochschild_dims(self.point7, 2)
        return {"dims": report["dims"], "chain_dims": report["chain_dims"]}, None

    def check_hochschild(self, req, out, ctx):
        if out["dims"] != self.known_hochschild:
            return [f"hochschild dims {out['dims']} != {self.known_hochschild}"]
        return []


def _size(value):
    """Number of nonzero terms of a chain or a form."""
    if isinstance(value, homology.ChainVector):
        return len(value.terms)
    return sum(len(poly.terms) for data in value.comps for poly in data.values())


WORKLOAD_STATE = {
    "fedosov-star": FedosovStar,
    "quotient-star": QuotientStar,
    "homology-tables": HomologyTables,
}


def corrupt(value):
    """A changed copy of an output: every leaf differs from the original."""
    if isinstance(value, dict):
        return {key: corrupt(item) for key, item in value.items()}
    if isinstance(value, list):
        return [corrupt(item) for item in value]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + " + 1"
    return "corrupted"


def environment():
    qtype = type(scalars.rational(0))
    return {
        "backend": f"{qtype.__module__}.{qtype.__qualname__}",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def serve(state, tracer, trace_path):
    for line in sys.stdin:
        req = json.loads(line)
        kind = req["kind"]
        if kind == "quit":
            reply = {"peak_rss_mb": _peak_rss_mb()}
            if tracer is not None:
                reply["per_layer"] = tracer.summary(req["timed_ops"])
                if trace_path:
                    tracer.dump(trace_path)
            _reply(reply)
            return
        if tracer is not None:
            tracer.op = req["op_id"]
        errors = []
        out = None
        start = time.perf_counter()
        try:
            out, ctx = getattr(state, kind)(req)
        except Exception as exc:  # an operation that raises is a failed operation
            op_s = time.perf_counter() - start
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            op_s = time.perf_counter() - start
            if req.get("corrupt"):
                out = corrupt(out)
            if tracer is not None:
                tracer.active = False
            try:
                errors = getattr(state, f"check_{kind}")(req, out, ctx)
            except Exception as exc:  # a check that cannot read the output fails
                errors.append(f"check raised {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.active = True
        check_s = time.perf_counter() - start - op_s
        _reply({"out": out, "op_s": op_s, "check_s": check_s, "errors": errors,
                "peak_rss_mb": _peak_rss_mb()})


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _reply(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def main():
    workload, traced = sys.argv[1], sys.argv[2] == "1"
    trace_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    state = WORKLOAD_STATE[workload](tracer.span if tracer is not None else _no_span)
    _reply({"ready": True, "env": environment()})
    serve(state, tracer, trace_path)


if __name__ == "__main__":
    main()
