"""Command-line front end.

Commands:
  hm      estimate the tail decay profile, write profile.csv
  hardy   profile plus the Hardy number estimate, write profile.csv + hardy.json
  member  fit the decay and classify H^p / A^p_alpha membership, write member.json
  norms   catalog growth profiles and empirical exponents, write norms_*.csv + norms.json
  verify  22 identity entries (circle average at 10 radii and moment exchange on
          the half-plane and the slit) and 2 Monte Carlo vs oracle spot checks,
          write verify.json
  report  profile.csv plus a gnuplot script of 1/omega against r with the fitted slope

Exit codes: 0 success, 1 verification failure, 2 usage error. Numerical
warnings ride inside the JSON artifacts, never the exit code: an infinite
Hardy number is a legitimate result, not a pipeline failure.

Identical configuration (including seed) produces byte-identical artifacts
regardless of chunk size or host parallelism.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import function_norms, identities
from ._serialize import fmt_float, growth_csv, json_dumps, profile_csv, write_text
from .errors import HardynumError, ZeroMeasure
from .geometry import (Disk, DiskExterior, HalfPlane, Sector, domain_to_dict, exact_hm,
                       load_domain)
from .hardy_estimator import (
    DEFAULT_WINDOW,
    check_tail_window,
    default_grid,
    estimate_hardy_number,
    fit_decay,
    sampling_warnings,
)
from .membership import MembershipQuery, classify_bergman, classify_hardy
from .wos import DEFAULT_CHUNK, WosConfig, estimate_hm, estimate_profile

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000
MC_AGREEMENT_SIGMAS = 4.0
MAX_GRID_COUNT = 10_000  # radii in a --grid; the default grid has 13

# the norms output names, each with the domain whose covering map it probes
_CATALOG = (
    ("cayley", HalfPlane()),
    ("sector_power_half", Sector(0.5 * math.pi)),
    ("exp_cayley", DiskExterior(1.0, basepoint=math.e)),
    ("identity", Disk(1.0)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardynum",
        description="Hardy/Bergman numbers of plane domains from harmonic-measure decay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand declares exactly the flags it reads
    def add_walks(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--chunk", type=int, default=DEFAULT_CHUNK,
                       help="walkers stepped together (no effect on results)")
        p.add_argument("--out", default=".", help="output directory")

    def add_profile(p: argparse.ArgumentParser, fits: bool) -> None:
        p.add_argument("--domain", required=True, help="path to a domain JSON file")
        p.add_argument("--grid", default=None, metavar="R0,RATIO,COUNT",
                       help="geometric radius grid (default 2*max(1,|a|), ratio 2, 13 points)")
        add_walks(p)
        if fits:
            p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                           help="tail fit over the last WINDOW+1 informative radii (>= 1)")

    add_profile(sub.add_parser("hm"), fits=False)
    for name in ("hardy", "report"):
        add_profile(sub.add_parser(name), fits=True)

    member = sub.add_parser("member")
    add_profile(member, fits=True)
    member.add_argument("--p", type=float, required=True)
    member.add_argument("--alpha", type=float, default=None)

    norms = sub.add_parser("norms")
    norms.add_argument("--p", type=float, default=1.0,
                       help="exponent for the growth profile CSVs")
    norms.add_argument("--alpha", type=float, default=0.0)
    norms.add_argument("--out", default=".", help="output directory")

    add_walks(sub.add_parser("verify"))
    return parser


def _grid_field(name: str, kind: type, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"grid {name} {text!r} is not a valid {kind.__name__}") from None


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be r0,ratio,count")
    r0, ratio, count = map(_grid_field, ("r0", "ratio", "count"), (float, float, int), parts)
    if not (r0 > 0.0 and math.isfinite(r0)):
        raise ValueError("grid r0 must be positive and finite")
    if not (ratio > 1.0):
        raise ValueError("grid ratio must exceed 1")
    if not 2 <= count <= MAX_GRID_COUNT:
        raise ValueError(f"grid count {count} is outside [2, {MAX_GRID_COUNT}]")
    try:
        last = r0 * ratio ** (count - 1)
    except OverflowError:
        last = math.inf
    if not math.isfinite(last):
        raise ValueError(f"grid radius r0*ratio**{count - 1} overflows; use a smaller ratio or count")
    return [r0 * ratio**k for k in range(count)]


def _load_inputs(args):
    if "window" in args:
        check_tail_window(args.window)  # before any walk
    domain = load_domain(args.domain)
    grid = _parse_grid(args.grid) if args.grid else default_grid(domain)
    cfg = WosConfig(n_samples=args.samples, seed=args.seed, chunk_size=args.chunk)
    return domain, grid, cfg


def _cmd_hm(args) -> int:
    domain, grid, cfg = _load_inputs(args)
    profile = estimate_profile(domain, grid, cfg)
    write_text(Path(args.out) / "profile.csv", profile_csv(profile))
    return 0


def _cmd_hardy(args) -> int:
    domain, grid, cfg = _load_inputs(args)
    profile = estimate_profile(domain, grid, cfg)
    est = estimate_hardy_number(profile, tail_window=args.window)
    write_text(Path(args.out) / "profile.csv", profile_csv(profile))
    payload = {**asdict(est), "seed": args.seed, "n_samples": args.samples,
               "domain": domain_to_dict(domain)}
    write_text(Path(args.out) / "hardy.json", json_dumps(payload))
    return 0


def _cmd_member(args) -> int:
    query = MembershipQuery(p=args.p, alpha=args.alpha)  # bad exponents fail before any walk
    domain, grid, cfg = _load_inputs(args)
    profile = estimate_profile(domain, grid, cfg)
    fit = fit_decay(profile, tail_window=args.window)
    if args.alpha is None:
        verdict = classify_hardy(fit, query)
    else:
        verdict = classify_bergman(fit, query)
    payload = {
        **asdict(verdict),
        "p": args.p,
        "alpha": args.alpha,
        "fit": {
            "q": fit.q,
            "log_intercept": fit.log_intercept,
            "residual": fit.residual,
            "fit_range": list(fit.fit_range),
            "n_points": fit.n_points,
        },
        "warnings": sampling_warnings(profile),
        "n_samples": profile.n_samples,
        "n_unterminated": profile.n_unterminated,
        "seed": args.seed,
        "domain": domain_to_dict(domain),
    }
    write_text(Path(args.out) / "member.json", json_dumps(payload))
    return 0


def _cmd_norms(args) -> int:
    function_norms.check_growth_exponents(args.p, args.alpha)  # before any table is built
    out = Path(args.out)
    summary = {}
    shared = None  # the table of the last map's base, shared by the powers of that base
    for name, domain in _CATALOG:
        base, beta = domain._map_power
        if shared is None or repr(shared.base) != repr(base):
            shared = None  # up to 2.7 MB: free it before the next base's table is built
            shared = function_norms.NodeTable(base)
        table = shared.power(beta)
        hardy_gp = function_norms.hardy_growth_profile(table, args.p)
        bergman_gp = function_norms.bergman_growth_profile(table, args.p, args.alpha)
        write_text(out / f"norms_{name}_hardy.csv", growth_csv(hardy_gp))
        write_text(out / f"norms_{name}_bergman.csv", growth_csv(bergman_gp))
        exps = function_norms.empirical_hb(table)
        del table  # a view of shared: shared = None alone would not free the logs
        summary[name] = {**asdict(exps), "hardy_classification": hardy_gp.classification,
                         "bergman_classification": bergman_gp.classification}
    write_text(out / "norms.json", json_dumps({"p": args.p, "alpha": args.alpha,
                                               "functions": summary}))
    return 0


def _mc_agreement_checks(cfg: WosConfig) -> list[dict]:
    checks = []
    for name, domain, r in (
        ("mc_vs_oracle_half_plane", HalfPlane(basepoint=1.0 + 0.0j), 10.0),
        ("mc_vs_oracle_right_angle_sector", Sector(opening=0.5 * math.pi,
                                                   basepoint=1.0 + 0.0j), 10.0),
    ):
        est = estimate_hm(domain, r, cfg)
        exact = exact_hm(domain, r)
        gap = abs(est.omega - exact)
        checks.append({
            "name": name,
            "estimate": est.omega,
            "exact": exact,
            "stderr": est.stderr,
            "passed": bool(gap <= MC_AGREEMENT_SIGMAS * est.stderr),
        })
    return checks


def _cmd_verify(args) -> int:
    # built first, so that a bad seed or sample count fails before the identity suite runs
    cfg = WosConfig(n_samples=args.samples, seed=args.seed, chunk_size=args.chunk)
    reports = identities.run_identity_suite() + identities.run_identity_suite(Sector(2.0 * math.pi))
    entries = [asdict(rep) for rep in reports]
    entries.extend(_mc_agreement_checks(cfg))
    write_text(Path(args.out) / "verify.json", json_dumps(entries))
    failed = [e["name"] for e in entries if not e["passed"]]
    if failed:
        print(f"verification FAILED: {', '.join(sorted(set(failed)))}", file=sys.stderr)
        return 1
    print(f"verification passed: {len(entries)} checks")
    return 0


_REPORT_TEMPLATE = """\
set terminal pngcairo size 900,600
set output 'profile.png'
set datafile separator ','
set logscale xy
set xlabel 'r'
set ylabel '1/omega'
set key left top
plot 'profile.csv' every ::1 using 1:($2 > 0 ? 1.0/$2 : 1/0) \\
     with points pt 7 title 'measured', \\
     {amp} * x**{q} with lines lw 2 title 'fit slope {q_short}'
"""


def _cmd_report(args) -> int:
    domain, grid, cfg = _load_inputs(args)
    profile = estimate_profile(domain, grid, cfg)
    fit = fit_decay(profile, tail_window=args.window)
    if not math.isfinite(fit.q):
        raise ZeroMeasure("the tail measure vanishes beyond a finite radius (q = inf); "
                          "there is no decay slope to plot")
    write_text(Path(args.out) / "profile.csv", profile_csv(profile))
    script = _REPORT_TEMPLATE.format(
        amp=fmt_float(math.exp(fit.log_intercept)),
        q=fmt_float(fit.q),
        q_short="%.3f" % fit.q,
    )
    write_text(Path(args.out) / "report.gp", script)
    return 0


_DISPATCH = {
    "hm": _cmd_hm,
    "hardy": _cmd_hardy,
    "member": _cmd_member,
    "norms": _cmd_norms,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (HardynumError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
