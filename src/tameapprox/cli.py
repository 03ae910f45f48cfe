"""Command-line surface.

Every command emits a machine-readable JSON report (the canonical format;
all integers are decimal strings so 64-bit consumers never overflow) or a
human-readable table derived from it.  Exit status: 0 = success/certified,
1 = a verification or certification failed, 2 = input or usage error,
3 = internal error (a failed invariant of the engine, not of the input).

Arguments are parsed on one of two paths, both from the same declarations
(each command's `add_options`).  When the first argument names a command,
`_fast_parse` reads the rest straight from that command's declarations, in a
strict grammar: exact long flags given as `--flag value` or `--flag=value`,
`type`, `choices`, `required`, `store_true`, `append` and defaults (a string
default passes through `type`, as in argparse).  Anything else -- `-h`, an
abbreviated or unknown flag, a missing value or one that starts with `-`, a
value that fails its type or choices, a missing required option, `--` --
goes to argparse (`command_parser`, or `build_parser` when no command is
named), so help, usage errors and exit codes are argparse's own.  The
invariant: for every argv the fast parse accepts, its namespace equals
`command_parser(name).parse_args(argv)` (`vars` compared).  argparse is
imported only on the second path: its first use in a process (it imports
`gettext` and then `locale`) costs more than most commands' cohomology.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

from .arithmetic import (
    SearchBoundError,
    _biquadratic_model,
    _jsonify,
    _structure_json,
    certify,
    find_p,
    find_q,
)
from .cohomology import (
    _default_shift_subgroups,
    dimension_shift_check,
    h1,
    sha_cyc,
    verify_augmentation_lemma,
)
from .finite_groups import (
    DEFAULT_ORDER_LIMIT,
    all_subgroups,
    builtin_group,
    group_from_json,
    subgroup_generated,
)
from .g_modules import _ideal_module, group_ring, module_from_json, trivial_module
from .zmod_linalg import NotInSpanError

LIMIT_ENV_VAR = "TAMEAPPROX_GROUP_LIMIT"


class UsageError(ValueError):
    pass


def _read_json(path, what):
    """The JSON value in the `what` file at `path`; a UsageError if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def _load_group(source, limit):
    if source.startswith("builtin:"):
        return builtin_group(source[len("builtin:"):], limit=limit)
    return group_from_json(_read_json(source, "group"), limit=limit)


def _load_module(spec, group, modulus):
    m = group.order if modulus is None else modulus
    if spec == "aug":
        return _ideal_module(group, m)
    if spec == "ring":
        return group_ring(group, m)
    if modulus is not None:
        raise UsageError("--modulus applies only to --module aug and ring")
    if spec.startswith("trivial:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad trivial module spec {spec!r}; expected trivial:<m>") from None
        return trivial_module(group, m)
    return module_from_json(group, _read_json(spec, "module"))


def _cocycle_json(group, rep):
    return {group.names[g]: [str(x) for x in rep[g]] for g in range(group.order)}


def _emit(args, report, table_lines):
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_h1(args, limit):
    group = _load_group(args.group, limit)
    module = _load_module(args.module, group, args.modulus)
    result = h1(group, module)
    classes = [(order, result.cocycle(col)) for order, col in
               zip(result.structure.invariant_factors, result.presentation.generator_columns)]
    report = {
        "command": "h1",
        "group": {"source": args.group, "order": str(group.order)},
        "module": {"label": module.label, "modulus": str(module.modulus),
                   "rank": str(module.rank)},
        "structure": _structure_json(result.structure),
        "cocycles": [{"order": str(order), "values": _cocycle_json(group, rep)}
                     for order, rep in classes],
    }
    lines = [f"H^1 structure: {result.structure}"]
    for order, rep in classes:
        lines.append(f"generator of order {order}:")
        for g in range(group.order):
            lines.append(f"  z({group.names[g]}) = {list(rep[g])}")
    return 0, report, lines


def _cmd_sha_cyc(args, limit):
    group = _load_group(args.group, limit)
    module = _load_module(args.module, group, args.modulus)
    structure = sha_cyc(group, module)
    report = {
        "command": "sha-cyc",
        "group": {"source": args.group, "order": str(group.order)},
        "module": {"label": module.label, "modulus": str(module.modulus),
                   "rank": str(module.rank)},
        "structure": _structure_json(structure),
    }
    return 0, report, [f"Sha^1_cyc structure: {structure}"]


def _cmd_verify_lemma(args, limit):
    group = _load_group(args.group, limit)
    rep = verify_augmentation_lemma(group)
    report = {
        "command": "verify-lemma",
        "group": {"source": args.group, "order": str(rep.order),
                  "exponent": str(rep.exponent)},
        "expected": _structure_json(rep.expected),
        "computed": _structure_json(rep.computed),
        "pass": rep.passed,
    }
    lines = [
        f"group order n = {rep.order}, exponent e = {rep.exponent}, f = n/e = {rep.order // rep.exponent}",
        f"expected Sha^1_cyc(G, I): {rep.expected}",
        f"computed Sha^1_cyc(G, I): {rep.computed}",
        "PASS" if rep.passed else "FAIL",
    ]
    return (0 if rep.passed else 1), report, lines


def _parse_subgroup_flags(group, args):
    subs = all_subgroups(group) if args.all_subgroups else _default_shift_subgroups(group)
    for spec in args.subgroup or ():
        try:
            gens = [int(x) for x in spec.split(",") if x.strip() != ""]
        except ValueError:
            raise UsageError(f"bad --subgroup spec {spec!r}; expected comma-separated indices") from None
        subs.append(subgroup_generated(group, gens))
    return subs


def _cmd_dimension_shift(args, limit):
    group = _load_group(args.group, limit)
    subs = _parse_subgroup_flags(group, args)
    reports = dimension_shift_check(group, subs)
    all_pass = all(r.passed for r in reports)
    report = {
        "command": "dimension-shift",
        "group": {"source": args.group, "order": str(group.order)},
        "subgroups": [
            {
                "order": str(r.subgroup.order),
                "elements": [group.names[x] for x in r.subgroup.elements],
                "ideal_h1": _structure_json(r.ideal_h1),
                "ideal_expected": _structure_json(r.ideal_expected),
                "ring_h1": _structure_json(r.ring_h1),
                "pass": r.passed,
            }
            for r in reports
        ],
        "pass": all_pass,
    }
    lines = []
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"|H| = {r.subgroup.order:>3}  H^1(H, I|_H) = {str(r.ideal_h1):<12}"
            f" expected {str(r.ideal_expected):<12} H^1(H, ring|_H) = {str(r.ring_h1):<6} {status}"
        )
    lines.append("PASS" if all_pass else "FAIL")
    return (0 if all_pass else 1), report, lines


def _cmd_sigma0(args, limit):
    _, witnesses, labels, *_ = _biquadratic_model(args.a, args.b)
    sigma0 = [str(v) for v in labels]
    report = {
        "command": "sigma0",
        "a": str(args.a),
        "b": str(args.b),
        "sigma0": sigma0,
        "places": _jsonify(witnesses),
    }
    lines = [f"Sigma_0(Q, I) for Q(sqrt {args.a}, sqrt {args.b}): {{{', '.join(sigma0)}}}"]
    for w in witnesses:
        lines.append(
            f"place {w['place']:>6}: |D| = {w['decomposition_order']}"
            f" ({'cyclic' if w['cyclic'] else 'full, non-cyclic'})"
            f" ramified={w['ramified']}"
        )
    return 0, report, lines


def _cmd_find_params(args, limit):
    ell, n = args.ell, args.n
    if ell is None or n is None:
        raise UsageError("find-params requires --ell and --n")
    if args.p is not None:
        p = args.p
    else:
        p = find_p(ell, n, start=args.start)
    q = find_q(ell, p, bound=args.search_bound)
    report = {
        "command": "find-params",
        "ell": str(ell), "n": str(n), "p": str(p), "q": str(q),
    }
    return 0, report, [f"ell = {ell}, n = {n}, p = {p}, q = {q}"]


def _cmd_certify(args, limit):
    if args.ell is None or args.n is None or args.p is None:
        raise UsageError("certify requires --ell, --n and --p")
    cert = certify(args.ell, args.n, args.p, args.q,
                   search_bound=args.search_bound,
                   hensel_precision=args.hensel_precision,
                   group_limit=limit)
    report = cert.to_json_dict()
    lines = [
        f"certificate for (ell, n, p, q) = ({cert.ell}, {cert.n}, {cert.p}, {cert.q})",
        f"field: {cert.field_desc}",
        f"Sigma_0: {{{', '.join(str(v) for v in cert.sigma0_labels)}}}"
        + ("" if cert.sigma0_exact or not cert.sigma0_statement
           else "  (partial: " + cert.sigma0_statement + ")"),
    ]
    for c in cert.checks:
        lines.append(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}")
    if cert.sha_sigma0 is not None:
        lines.append(f"Sha^1_Sigma0 = {cert.sha_sigma0}, Sha^1 = {cert.sha_full}")
        for k, v in cert.sha_sigma0_minus.items():
            lines.append(f"Sha^1 without {k}: {v}")
    lines.append(f"conclusion: {cert.conclusion}")
    return (0 if cert.certified else 1), report, lines


def _add_common(p, group=False, module=False, params=False):
    p.add_argument("--format", choices=("json", "table"), default="json",
                   help="output format (JSON is canonical)")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    p.add_argument("--limit", type=int, default=None,
                   help=f"group order limit (default {DEFAULT_ORDER_LIMIT}; env {LIMIT_ENV_VAR})")
    if group:
        p.add_argument("--group", required=True,
                       help="builtin:<name> or path to a group JSON file")
    if module:
        p.add_argument("--module", default="aug",
                       help="aug | ring | trivial:<m> | path to module JSON")
        p.add_argument("--modulus", type=int, default=None,
                       help="modulus for aug/ring (default |G|)")
    if params:
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--search-bound", type=int, default=2 ** 32)


def _add_dimension_shift(p):
    _add_common(p, group=True)
    p.add_argument("--all-subgroups", action="store_true",
                   help="run over the full subgroup lattice")
    p.add_argument("--subgroup", action="append", default=None,
                   metavar="I,J,...", help="extra subgroup generated by these element indices")


def _add_sigma0(p):
    _add_common(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)


def _add_find_params(p):
    _add_common(p, params=True)
    p.add_argument("--start", type=int, default=2, help="lower bound for the p search")


def _add_certify(p):
    _add_common(p, params=True)
    p.add_argument("--q", type=int, default=None,
                   help="companion prime (default: least admissible)")
    p.add_argument("--hensel-precision", type=int, default=8,
                   help="ell-adic precision exponent for the local witness")


class Command(NamedTuple):
    help: str
    add_options: Callable[[object], None]
    run: Callable


# The one definition of every command: its help line, the function that
# declares its options (to an argparse parser, or to `_Declared` for the fast
# parse), and the function that runs it.
_COMMANDS = {
    "h1": Command("H^1(G, M) with cocycle representatives",
                  partial(_add_common, group=True, module=True), _cmd_h1),
    "sha-cyc": Command("kernel of restriction to all cyclic subgroups",
                       partial(_add_common, group=True, module=True), _cmd_sha_cyc),
    "verify-lemma": Command("check Sha^1_cyc(G, I) = Z/(n/e) for the augmentation ideal",
                            partial(_add_common, group=True), _cmd_verify_lemma),
    "dimension-shift": Command("check H^1(H, I|_H) = Z/|H| and H^1(H, ring|_H) = 0",
                               _add_dimension_shift, _cmd_dimension_shift),
    "sigma0": Command("places with non-cyclic decomposition group in Q(sqrt a, sqrt b)",
                      _add_sigma0, _cmd_sigma0),
    "find-params": Command("search the (p, q) prime parameters",
                           _add_find_params, _cmd_find_params),
    "certify": Command("build and verify a counterexample certificate",
                       _add_certify, _cmd_certify),
}


class _Declared(dict):
    """A command's options keyed by flag, each the keywords of its one
    `add_argument` declaration."""

    def add_argument(self, flag, **spec):
        self[flag] = spec


def _fast_parse(name, argv):
    """`command_parser(name).parse_args(argv)` as a namespace with the same
    `vars`, read straight from the command's declarations; None when `argv`
    leaves the strict grammar of the module docstring or would fail to parse."""
    declared = _Declared()
    _COMMANDS[name].add_options(declared)
    dest = {flag: flag[2:].replace("-", "_") for flag in declared}
    values = {"command": name}
    for flag, spec in declared.items():
        store_true = spec.get("action") == "store_true"
        values[dest[flag]] = spec.get("default", False if store_true else None)
    unseen = dict(declared)
    tokens = iter(argv)
    try:
        for token in tokens:
            flag, eq, value = token.partition("=")
            spec = declared.get(flag)
            if spec is None:
                return None  # -h, --, an abbreviation, an unknown flag or a positional
            unseen.pop(flag, None)
            action = spec.get("action")
            if action == "store_true":
                if eq:
                    return None
                values[dest[flag]] = True
                continue
            if not eq:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None  # missing, or argparse may read it as a flag
            elif value == "--":
                return None  # argparse drops a "--" value, differently by version
            value = spec.get("type", str)(value)
            if value not in spec.get("choices", (value,)):
                return None
            if action == "append":
                value = (values[dest[flag]] or []) + [value]
            values[dest[flag]] = value
        for flag, spec in unseen.items():
            if spec.get("required"):
                return None
            if isinstance(spec.get("default"), str):
                values[dest[flag]] = spec.get("type", str)(spec["default"])
    except (TypeError, ValueError):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The parser of every command, for `tameapprox -h` and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tameapprox",
        description="Certified counterexamples to tame approximation via"
                    " Tate-Shafarevich restriction kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command.add_options(sub.add_parser(name, help=command.help))
    return parser


def command_parser(name):
    """The parser of command `name` alone; parses the arguments after the
    command name to the same Namespace as `build_parser()` parses the whole."""
    import argparse

    parser = argparse.ArgumentParser(prog=f"tameapprox {name}")
    _COMMANDS[name].add_options(parser)
    parser.set_defaults(command=name)
    return parser


def run(args):
    limit = args.limit
    if limit is None:
        env = os.environ.get(LIMIT_ENV_VAR)
        if env is not None:
            try:
                limit = int(env)
            except ValueError:
                raise UsageError(f"{LIMIT_ENV_VAR} must be an integer, got {env!r}") from None
        else:
            limit = DEFAULT_ORDER_LIMIT
    status, report, lines = _COMMANDS[args.command].run(args, limit)
    _emit(args, report, lines)
    return status


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # Building every command's parser costs more than parsing; a known
    # command name needs only its own, and argparse only when the fast parse
    # declines.
    if argv and argv[0] in _COMMANDS:
        args = _fast_parse(argv[0], argv[1:]) or command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (NotInSpanError, AssertionError) as exc:
        # before ValueError: NotInSpanError subclasses it, but means a bug here
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SearchBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
