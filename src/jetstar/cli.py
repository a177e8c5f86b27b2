"""Command-line interface: star products, verification suites, homology reports.

Reports are deterministic: the same config and seed produce byte-identical
JSON.  Exit codes: 0 success, 1 at least one failed check, 2 invalid
configuration or input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, asdict

from . import __version__, derham, homology
from .elements import TruncationPolicy
from .errors import GuardrailError, JetstarError, ValidationError
from .fedosov import (
    BUILTIN_CONNECTIONS,
    ConnectionInput,
    build_A,
    builtin_connection,
    load_connection_file,
    star,
)
from .parsing import parse_element, read_json
from .verify import run_suites
from .weyl import PoissonTensor
from .whitney import (
    BUILTIN_SUBSETS,
    WhitneyAlgebra,
    builtin_subset,
    load_subset_file,
)

SCHEMA = "jetstar-report/1"

DEFAULTS = {
    "dim": 1,
    "jet_order": 6,
    "fedosov_order": 6,
    "hbar_order": 2,
    "hbar_min": 0,
    "subset": None,
    "connection": "flat",
    "seed": 0,
    "trials": 8,
    "format": "text",
    "out": None,
}


@dataclass
class RunConfig:
    command: str
    dim: int
    jet_order: int
    fedosov_order: int
    hbar_order: int
    hbar_min: int
    subset: str | None
    connection: str
    seed: int
    trials: int
    format: str
    out: str | None

    def policy(self):
        return TruncationPolicy(
            self.dim, self.jet_order, self.fedosov_order, self.hbar_order, self.hbar_min
        )

    def resolved(self):
        data = asdict(self)
        data.pop("out", None)  # where the report goes, not what it means
        data["version"] = __version__
        return data


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jetstar",
        description="Exact deformation quantization of truncated Whitney-jet algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dim", type=int, help="half-dimension n (ambient dim is 2n)")
        p.add_argument("--jet-order", type=int, dest="jet_order")
        p.add_argument("--fedosov-order", type=int, dest="fedosov_order")
        p.add_argument("--hbar-order", type=int, dest="hbar_order")
        p.add_argument("--hbar-min", type=int, dest="hbar_min")
        p.add_argument("--subset", help="built-in subset name or JSON path")
        p.add_argument("--connection", help="built-in connection name or JSON path")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--format", choices=("json", "text"))
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--config", help="JSON config file mirroring the flags")

    p_star = sub.add_parser("star", help="print the star product of two expressions")
    add_common(p_star)
    p_star.add_argument("f")
    p_star.add_argument("g")

    p_verify = sub.add_parser("verify", help="run seeded invariant suites")
    add_common(p_verify)
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=("weyl", "fedosov", "whitney", "derham", "homology", "all"),
    )

    p_hom = sub.add_parser("homology", help="Betti tables and duality witnesses")
    add_common(p_hom)
    p_hom.add_argument(
        "--hochschild", action="store_true", help="include brute-force Hochschild dims"
    )
    return parser


def _resolve_config(args):
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        file_cfg = read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise JetstarError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            kind = int if type(DEFAULTS[key]) is int else str
            if type(value) is not kind and not (value is None and DEFAULTS[key] is None):
                raise ValidationError(f"config key {key!r} must be of type {kind.__name__}")
        merged.update(file_cfg)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return RunConfig(command=args.command, **merged)


def _resolve_subset(config):
    if config.subset is None:
        return None
    if config.subset in BUILTIN_SUBSETS:
        return builtin_subset(config.subset)
    return load_subset_file(config.subset)


def _resolve_connection(config):
    if config.connection in BUILTIN_CONNECTIONS:
        conn = builtin_connection(config.connection, config.dim)
        return conn, PoissonTensor.darboux(config.dim)
    conn, pt = load_connection_file(config.connection)
    if conn.half_dim != config.dim:
        raise JetstarError(
            f"connection file has n={conn.half_dim}, --dim is {config.dim}"
        )
    return conn, pt


def _emit(report, config):
    if config.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(report)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_text(report):
    lines = [f"jetstar {report['command']} (schema {report['schema']}, v{report['version']})"]
    if report["command"] == "star":
        lines.append(f"f = {report['f']}")
        lines.append(f"g = {report['g']}")
        lines.append(f"f * g = {report['series']}")
        for k, value in report["coefficients"].items():
            lines.append(f"  c_{k} = {value}")
        if report.get("induced") is not None:
            lines.append("induced on the quotient:")
            for k, value in report["induced"].items():
                lines.append(f"  c_{k} = {value}")
    elif report["command"] == "verify":
        for item in report["results"]:
            status = "pass" if item["passed"] else "FAIL"
            detail = f"  ({item['detail']})" if item["detail"] else ""
            lines.append(f"{item['name']}: {status} [trials={item['trials']}]{detail}")
        lines.append("all passed" if report["all_passed"] else "FAILURES PRESENT")
    elif report["command"] == "homology":
        for entry in report["subsets"]:
            lines.append(f"subset {entry['subset']}:")
            lines.append(f"  betti (Whitney-de Rham): {entry['betti']}")
            lines.append(f"  poisson homology:        {entry['poisson_homology']}")
            lines.append("  duality table (q, dim H^delta_q, dim H^{2n-q}):")
            for row in entry["duality"]:
                lines.append(f"    {tuple(row)}")
            hh = entry.get("hochschild")
            if hh is not None and "skipped" in hh:
                lines.append(f"  hochschild: skipped ({hh['skipped']})")
            elif hh is not None:
                lines.append(f"  hochschild dims (per component): {hh['dims']}")
                lines.append(f"  caveat: {hh['caveat']}")
    return "\n".join(lines) + "\n"


def cmd_star(config, f_text, g_text):
    policy = config.policy()
    conn, pt = _resolve_connection(config)
    fd = build_A(conn, pt, policy)
    notices = []
    f = parse_element(f_text, policy, notices)
    g = parse_element(g_text, policy, notices)
    if not (f.is_base_series() and g.is_base_series()):
        raise JetstarError("star expects base expressions (x variables and h only)")
    series = star(f, g, fd)
    coefficients = {
        str(k): str(series.hbar_coefficient(k)) for k in series.hbar_orders()
    }
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "star",
        "config": config.resolved(),
        "f": str(f),
        "g": str(g),
        "series": str(series),
        "coefficients": coefficients,
        "notices": notices,
        "induced": None,
    }
    subset = _resolve_subset(config)
    if subset is not None:
        if subset.dim != policy.dim:
            raise JetstarError("subset dimension does not match --dim")
        walg = WhitneyAlgebra(subset, policy)
        induced = walg.project(f).star(walg.project(g), fd)
        report["induced"] = {
            str(k): str(induced.rep.hbar_coefficient(k))
            for k in induced.rep.hbar_orders()
        }
    _emit(report, config)
    return 0


def cmd_verify(config, suite):
    options = {
        "half_dim": config.dim,
        "seed": config.seed,
        "trials": config.trials,
        "policy": None,
        "subset_names": None,
    }
    conn, pt = _resolve_connection(config)
    options["connection"] = conn
    options["poisson"] = pt
    if config.subset is not None:
        if config.subset not in BUILTIN_SUBSETS:
            raise JetstarError("verify suites accept built-in subset names only")
        options["subset_names"] = [config.subset]
    results = run_suites(suite, options)
    all_passed = all(item.passed for item in results)
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "verify",
        "suite": suite,
        "config": config.resolved(),
        "results": [item.to_json() for item in results],
        "all_passed": all_passed,
    }
    _emit(report, config)
    return 0 if all_passed else 1


def cmd_homology(config, with_hochschild):
    names = [config.subset] if config.subset else list(BUILTIN_SUBSETS)
    subsets = []
    for name in names:
        if name in BUILTIN_SUBSETS:
            subset = builtin_subset(name)
        else:
            subset = load_subset_file(name)
        n = subset.dim // 2
        policy = TruncationPolicy(n, max(config.jet_order, subset.dim), 2, 1)
        pt = PoissonTensor.darboux(n)
        betti = derham.cohomology_dims(subset, policy)
        poisson = derham.poisson_homology_dims(subset, pt, policy)
        entry = {
            "subset": subset.name,
            "betti": betti,
            "poisson_homology": poisson,
            "duality": [list(row) for row in derham.duality_rows(betti, poisson)],
            "hochschild": None,
        }
        if with_hochschild:
            # computed per intersection component; components are isomorphic
            hbar_max, total_cap, q_max = 1, 2, 1
            basis = homology.algebra_basis(subset.dim, hbar_max, total_cap, total_cap)
            try:
                homology.check_hochschild_size(len(basis), q_max)
            except GuardrailError as exc:
                entry["hochschild"] = {"skipped": str(exc)}
            else:
                walg_policy = TruncationPolicy(n, 4, 4, 1)
                walg = WhitneyAlgebra(_single_component(subset), walg_policy)
                fd = build_A(ConnectionInput.flat(n), pt, walg_policy)
                algebra = homology.FiniteAlgebra(
                    walg, hbar_max=hbar_max, fd=fd, total_cap=total_cap
                )
                entry["hochschild"] = homology.hochschild_dims(algebra, q_max)
            entry["hochschild"]["components"] = len(subset.components())
        subsets.append(entry)
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "homology",
        "config": config.resolved(),
        "subsets": subsets,
    }
    _emit(report, config)
    return 0


def _single_component(subset):
    from .whitney import SubsetModel

    germ_indices = subset.components()[0]
    return SubsetModel(
        subset.dim,
        [subset.germs[i] for i in germ_indices],
        name=f"{subset.name}[component 0]",
    )


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "star":
            return cmd_star(config, args.f, args.g)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        if args.command == "homology":
            return cmd_homology(config, args.hochschild)
        raise JetstarError(f"unknown command {args.command!r}")
    except JetstarError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
