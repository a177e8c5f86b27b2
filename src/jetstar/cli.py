"""Command-line interface: star products, verification suites, homology reports.

Each command reads its own settings (``SETTINGS``, ``COMMANDS``) from flags
or a ``--config`` JSON object, flags winning, and rejects any other:

- ``star``: dim, jet_order, fedosov_order, hbar_order, hbar_min, subset,
  connection, format, out;
- ``verify``: dim, subset, connection, seed, trials, format, out;
- ``homology``: jet_order, subset, format, out.

A report's ``config`` block echoes the settings its command read, ``out``
aside, with the command and package version.  Reports are deterministic:
the same config and seed produce byte-identical JSON.  Exit codes: 0 success, 1 at least one failed check, 2 invalid
configuration or input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

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
from .verify import SUITES, run_suites
from .weyl import PoissonTensor
from .whitney import (
    BUILTIN_SUBSETS,
    WhitneyAlgebra,
    builtin_subset,
    load_subset_file,
)

SCHEMA = "jetstar-report/1"


@dataclass(frozen=True)
class Setting:
    """One setting: its value type, default, flag help and the check that a
    flag and a config-file value both pass."""

    kind: type
    default: object
    help: str | None = None
    choices: tuple | None = None
    minimum: int | None = None

    def check(self, key, value):
        if type(value) is not self.kind and not (value is None and self.default is None):
            raise ValidationError(f"config key {key!r} must be of type {self.kind.__name__}")
        if self.choices and value not in self.choices:
            raise ValidationError(f"{key} must be one of {'|'.join(self.choices)}, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise ValidationError(f"{key} must be >= {self.minimum}, got {value}")
        return value


SETTINGS = {
    "dim": Setting(int, 1, "half-dimension n (ambient dim is 2n)"),
    "jet_order": Setting(int, 6),
    "fedosov_order": Setting(int, 6),
    "hbar_order": Setting(int, 2),
    "hbar_min": Setting(int, 0),
    "subset": Setting(str, None, "built-in subset name or JSON path"),
    "connection": Setting(str, "flat", "built-in connection name or JSON path"),
    "seed": Setting(int, 0),
    "trials": Setting(int, 8, minimum=1),
    "format": Setting(str, "text", choices=("json", "text")),
    "out": Setting(str, None, "write the report to this path"),
}

# each command's help and the settings it reads; it accepts no others
COMMANDS = {
    "star": (
        "print the star product of two expressions",
        ("dim", "jet_order", "fedosov_order", "hbar_order", "hbar_min", "subset",
         "connection", "format", "out"),
    ),
    "verify": (
        "run seeded invariant suites",
        ("dim", "subset", "connection", "seed", "trials", "format", "out"),
    ),
    "homology": (
        "Betti tables and duality witnesses",
        ("jet_order", "subset", "format", "out"),
    ),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jetstar",
        description="Exact deformation quantization of truncated Whitney-jet algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in keys:
            setting = SETTINGS[key]
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=setting.kind,
                choices=setting.choices, help=setting.help,
            )
        p.add_argument("--config", help="JSON config file with these settings; flags win")
    sub.choices["star"].add_argument("f")
    sub.choices["star"].add_argument("g")
    sub.choices["verify"].add_argument("--suite", default="all", choices=(*SUITES, "all"))
    sub.choices["homology"].add_argument(
        "--hochschild", action="store_true", help="include brute-force Hochschild dims"
    )
    return parser


def _resolve_config(args):
    """The settings ``args.command`` reads: defaults, then the config file,
    then the flags, each value checked by its setting."""
    keys = COMMANDS[args.command][1]
    given = {}
    if args.config:
        given = read_json(args.config)
        if not isinstance(given, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        unknown = set(given) - set(keys)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    config = {key: SETTINGS[key].default for key in keys}
    for key, value in [*given.items(), *flags.items()]:
        config[key] = SETTINGS[key].check(key, value)
    return argparse.Namespace(**config)


def _resolve_subset(name):
    if name is None:
        return None
    if name in BUILTIN_SUBSETS:
        return builtin_subset(name)
    return load_subset_file(name)


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


def _report(command, config, **fields):
    """The report header (schema, version, command and the settings read,
    less where the report goes) followed by ``fields``."""
    echoed = {key: value for key, value in vars(config).items() if key != "out"}
    echoed.update(command=command, version=__version__)
    return {"schema": SCHEMA, "version": __version__, "command": command, "config": echoed,
            **fields}


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


def _coefficients(series):
    return {str(k): str(series.hbar_coefficient(k)) for k in series.hbar_orders()}


def cmd_star(config, f_text, g_text):
    policy = TruncationPolicy(
        config.dim, config.jet_order, config.fedosov_order, config.hbar_order, config.hbar_min
    )
    conn, pt = _resolve_connection(config)
    fd = build_A(conn, pt, policy)
    notices = []
    f = parse_element(f_text, policy, notices)
    g = parse_element(g_text, policy, notices)
    if not (f.is_base_series() and g.is_base_series()):
        raise JetstarError("star expects base expressions (x variables and h only)")
    series = star(f, g, fd)
    induced = None
    subset = _resolve_subset(config.subset)
    if subset is not None:
        if subset.dim != policy.dim:
            raise JetstarError("subset dimension does not match --dim")
        walg = WhitneyAlgebra(subset, policy)
        induced = _coefficients(walg.project(f).star(walg.project(g), fd).rep)
    report = _report(
        "star", config, f=str(f), g=str(g), series=str(series),
        coefficients=_coefficients(series), notices=notices, induced=induced,
    )
    _emit(report, config)
    return 0


def cmd_verify(config, suite):
    conn, pt = _resolve_connection(config)
    results = run_suites(
        suite, seed=config.seed, trials=config.trials, connection=conn, poisson=pt,
        subset=config.subset,
    )
    all_passed = all(item.passed for item in results)
    report = _report(
        "verify", config, suite=suite, results=[item.to_json() for item in results],
        all_passed=all_passed,
    )
    _emit(report, config)
    return 0 if all_passed else 1


def cmd_homology(config, with_hochschild):
    names = [config.subset] if config.subset else list(BUILTIN_SUBSETS)
    subsets = []
    for name in names:
        subset = _resolve_subset(name)
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
    _emit(_report("homology", config, subsets=subsets), config)
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
        return cmd_homology(config, args.hochschild)
    except (JetstarError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
