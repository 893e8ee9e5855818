"""Acceptance gate: one test per advertised criterion, at the stated tolerance.

Each test prints a single pass line with the measured numbers once its
assertions hold, so a -v run reads as a checklist.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hardynum
from hardynum import (
    Disk,
    DiskExterior,
    HalfPlane,
    MembershipQuery,
    NodeTable,
    Sector,
    WosConfig,
    bergman_growth_profile,
    cayley,
    classify_bergman,
    classify_hardy,
    default_grid,
    estimate_hardy_number,
    estimate_hm,
    estimate_profile,
    exp_cayley,
    empirical_hb,
    fit_decay,
    oracle_profile,
    run_identity_suite,
    sector_power,
)
from hardynum.cli import main as cli_main

N_SAMPLES = 100_000
GRID = [2.0 * 2**k for k in range(13)]
WINDOW = 4


def mc_estimate(domain, seed=0):
    cfg = WosConfig(n_samples=N_SAMPLES, seed=seed)
    profile = estimate_profile(domain, GRID, cfg)
    return estimate_hardy_number(profile, tail_window=WINDOW)


def test_criterion_01_half_plane_decay_exponent_one():
    start = time.monotonic()
    est = mc_estimate(HalfPlane(1.0))
    elapsed = time.monotonic() - start
    assert abs(est.value - 1.0) <= 0.1, est
    assert elapsed < 120.0
    print(f"criterion 01 PASS: half-plane exponent {est.value:.4f} "
          f"(target 1.0 +/- 0.1) in {elapsed:.1f}s")


def test_criterion_02_sector_and_slit_exponents():
    sector = mc_estimate(Sector(math.pi / 2, 1.0))
    assert abs(sector.value - 2.0) <= 0.2, sector
    slit = mc_estimate(Sector(2 * math.pi, 1.0))
    assert abs(slit.value - 0.5) <= 0.1, slit
    print(f"criterion 02 PASS: quarter-plane {sector.value:.4f} (2.0 +/- 0.2), "
          f"slit plane {slit.value:.4f} (0.5 +/- 0.1)")


def test_criterion_03_non_regular_domain_zero_measure():
    d = DiskExterior(1.0)
    cfg = WosConfig(n_samples=2_000, seed=0, max_steps=20_000)
    radii = [1.5, 2.0, 4.0, 16.0, 256.0, 4096.0]
    profile = estimate_profile(d, radii, cfg)
    assert all(e.omega == 0.0 for e in profile.entries), profile.omegas()
    est = estimate_hardy_number(profile, tail_window=WINDOW)
    assert est.value == math.inf
    assert "non_regular_domain" in est.warnings
    print("criterion 03 PASS: exterior-of-disk measure identically 0, "
          f"estimate inf, warnings {list(est.warnings)}")


def test_criterion_04_bounded_domain_infinite():
    d = Disk(1.0, basepoint=0.0)
    cfg = WosConfig(n_samples=2_000, seed=0)
    profile = estimate_profile(d, GRID, cfg)
    est = estimate_hardy_number(profile, tail_window=WINDOW)
    assert est.value == math.inf
    assert "bounded_domain" in est.warnings
    print(f"criterion 04 PASS: bounded disk estimate inf, warnings {list(est.warnings)}")


def test_criterion_05_monte_carlo_vs_oracle_coverage():
    d = HalfPlane(1.0)
    target = 0.063451
    hits = 0
    for seed in range(20):
        est = estimate_hm(d, 10.0, WosConfig(n_samples=N_SAMPLES, seed=seed))
        if abs(est.omega - target) <= 3.0 * est.stderr:
            hits += 1
    assert hits >= 19, f"only {hits}/20 seeds within 3 stderr"
    print(f"criterion 05 PASS: {hits}/20 seeds within 3 stderr of {target}")


def test_criterion_06_identity_suite_and_verify(tmp_path, capsys):
    reports = run_identity_suite()
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    rc = cli_main(["verify", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert all(entry["passed"] for entry in payload)
    print(f"criterion 06 PASS: {len(reports)} identity checks green, "
          f"verify exit 0 ({len(payload)} checks), said {out.strip()!r}")


def test_criterion_07_function_side_exponents_match_domain_side():
    cay = empirical_hb(cayley())
    assert abs(cay.h_hat - 1.0) <= 0.05, cay
    assert abs(cay.b_hat - 1.0) <= 0.05, cay
    assert abs(cay.h_hat - cay.b_hat) <= 0.1

    half = empirical_hb(sector_power(0.5))
    assert abs(half.h_hat - 2.0) <= 0.1, half
    domain_side = mc_estimate(Sector(math.pi / 2, 1.0)).value
    assert abs(half.h_hat - domain_side) <= 0.15
    print(f"criterion 07 PASS: cayley h={cay.h_hat:.4f} b={cay.b_hat:.4f}; "
          f"sqrt-map h={half.h_hat:.4f} vs domain-side {domain_side:.4f}")


def test_criterion_08_divergence_witness_blows_up():
    # the truncated integrals at the gaps BERGMAN_GAPS, each a hundredth of
    # the last, must grow by more than a factor 10 from one gap to the next
    table = NodeTable(exp_cayley())
    growth_floor = math.log(10.0)
    worst = math.inf
    for p in (0.5, 1.0, 2.0):
        for alpha in (0.0, 1.0):
            profile = bergman_growth_profile(table, p, alpha)
            levels = profile.log_values
            steps = [fine - coarse for coarse, fine in zip(levels, levels[1:])]
            worst = min(worst, *steps)
            assert min(steps) > growth_floor, (p, alpha, steps)
            assert profile.classification == "unbounded", (p, alpha)
    print(f"criterion 08 PASS: truncation growth factor >= e^{worst:.1f} "
          f"(> 10 required) and all six profiles classified unbounded")


def test_criterion_09_membership_verdicts_and_embedding_sweep():
    d = HalfPlane(1.0)
    fit = fit_decay(oracle_profile(d, default_grid(d)))
    assert classify_hardy(fit, MembershipQuery(0.5)).verdict == "member"
    assert classify_hardy(fit, MembershipQuery(2.0)).verdict == "not_member"
    assert classify_hardy(fit, MembershipQuery(1.0)).verdict == "inconclusive"
    assert classify_bergman(fit, MembershipQuery(1.5, alpha=0.0)).verdict == "member"
    assert classify_bergman(fit, MembershipQuery(3.0, alpha=0.0)).verdict == "not_member"

    points = [(p, alpha)
              for p in (0.3, 0.8, 1.5, 2.5, 4.0)
              for alpha in (-0.5, 0.0, 1.0, 3.0)]
    assert len(points) == 20
    for p, alpha in points:
        ratio = p / (alpha + 2.0)
        bergman = classify_bergman(fit, MembershipQuery(p, alpha=alpha))
        hardy_at_ratio = classify_hardy(fit, MembershipQuery(ratio))
        # shared critical ratio: the verdicts must coincide exactly
        assert bergman.verdict == hardy_at_ratio.verdict, (p, alpha)
        # embedding direction: a Hardy member in [p/(alpha+2), p] bars rejection
        if hardy_at_ratio.verdict == "member":
            assert bergman.verdict != "not_member", (p, alpha)
    print("criterion 09 PASS: five pinned verdicts and 20-point embedding sweep")


def _run_cli(args, out_dir, threads):
    # the package's parent directory, so a checkout runs without an install
    paths = [str(Path(hardynum.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = ("import sys; from hardynum.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *args, "--out", str(out_dir)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


def test_criterion_10_byte_identical_artifacts(tmp_path):
    dom = tmp_path / "half_plane.json"
    dom.write_text('{"shape": "half_plane", "basepoint": [1.0, 0.0]}\n')
    commands = {
        "hm": ["hm", "--domain", str(dom), "--samples", "5000", "--grid", "2,2,8"],
        "hardy": ["hardy", "--domain", str(dom), "--samples", "5000",
                  "--grid", "2,2,8", "--window", "3"],
        "member": ["member", "--domain", str(dom), "--samples", "5000",
                   "--grid", "2,2,8", "--p", "0.5"],
        "report": ["report", "--domain", str(dom), "--samples", "5000",
                   "--grid", "2,2,8"],
        "norms": ["norms"],
        "verify": ["verify", "--samples", "20000"],
    }
    checked = 0
    for name, args in commands.items():
        # identical config, separate processes, different thread-count env,
        # and (where meaningful) a different walk batch size
        first = _run_cli(args, tmp_path / f"{name}_a", threads="1")
        second = _run_cli(args, tmp_path / f"{name}_b", threads="4")
        assert first == second, f"{name} artifacts differ across runs"
        if "--samples" in args:
            rechunked = _run_cli(args + ["--chunk", "977"], tmp_path / f"{name}_c",
                                 threads="2")
            assert rechunked == first, f"{name} artifacts differ across chunk sizes"
        checked += len(first)
    print(f"criterion 10 PASS: {checked} artifacts byte-identical across "
          "reruns, thread counts, and batch sizes")
