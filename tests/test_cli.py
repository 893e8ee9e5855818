"""Command-line interface: artifacts, exit codes, serialization format."""

import argparse
import functools
import json
import math
import weakref

import pytest

from hardynum import Disk, DiskExterior, HalfPlane, Sector, WosConfig, dump_domain
from hardynum import cli, function_norms, wos
from hardynum.cli import main


@pytest.fixture
def halfplane_json(tmp_path):
    path = tmp_path / "half_plane.json"
    dump_domain(HalfPlane(1.0), str(path))
    return str(path)


@pytest.fixture
def disk_exterior_json(tmp_path):
    path = tmp_path / "disk_exterior.json"
    path.write_text('{"shape": "disk_exterior", "radius": 1.0, "basepoint": [2.0, 0.0]}')
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


# ---- hm ---------------------------------------------------------------------


def test_hm_writes_profile_csv(tmp_path, halfplane_json):
    out = tmp_path / "out"
    rc = main(["hm", "--domain", halfplane_json, "--samples", "2000",
               "--grid", "2,2,5", "--out", str(out)])
    assert rc == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "r,omega,stderr,local_slope"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 2.0
    assert 0.0 <= float(first[1]) <= 1.0
    assert first[3] == ""  # no slope for the first grid point
    assert float(lines[2].split(",")[3]) > 0.0


def test_hm_omitted_basepoint_is_the_constructor_default(tmp_path):
    # off-center, so that where the walks start shows in omega(2)
    runs = []
    for name, extra in (("omitted", ""), ("given", ', "basepoint": [0, 0]')):
        path = tmp_path / f"{name}.json"
        path.write_text('{"shape": "disk", "radius": 2.0, "center": [0.5, 0.0]%s}' % extra)
        out = tmp_path / name
        assert main(["hm", "--domain", str(path), "--samples", "2000", "--out", str(out)]) == 0
        runs.append((out / "profile.csv").read_bytes())
    assert runs[0] == runs[1]


# ---- hardy ------------------------------------------------------------------


def test_hardy_estimates_halfplane_exponent(tmp_path, halfplane_json):
    out = tmp_path / "out"
    rc = main(["hardy", "--domain", halfplane_json, "--samples", "20000",
               "--grid", "2,2,10", "--window", "3", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "hardy.json")
    assert 0.7 <= payload["value"] <= 1.3
    assert payload["warnings"] == []
    assert payload["seed"] == 0
    assert payload["n_samples"] == 20000
    low, high = payload["used_radii"]
    assert high == 2.0**3 * low  # the fit spans window + 1 grid radii
    assert high < 2.0 * 2**9  # noisy tail radii are trimmed
    assert payload["domain"]["shape"] == "half_plane"
    assert (out / "profile.csv").exists()


def test_hardy_flags_non_regular_domain(tmp_path, disk_exterior_json):
    out = tmp_path / "out"
    rc = main(["hardy", "--domain", disk_exterior_json, "--samples", "500",
               "--grid", "2,2,5", "--window", "2", "--out", str(out)])
    assert rc == 0  # infinity is a legitimate result, not a failure
    payload = read_json(out / "hardy.json")
    assert payload["value"] == "inf"
    assert "non_regular_domain" in payload["warnings"]


# ---- member -----------------------------------------------------------------


def test_member_hardy_space_verdict(tmp_path, halfplane_json):
    out = tmp_path / "out"
    rc = main(["member", "--domain", halfplane_json, "--samples", "20000",
               "--grid", "2,2,10", "--p", "0.5", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "member.json")
    assert payload["alpha"] is None  # plain Hardy-space query
    assert payload["verdict"] == "member"
    assert payload["rationale"] == "decay_sufficient"
    assert payload["p"] == 0.5
    assert 0.5 < payload["critical_ratio"] < 1.5
    assert payload["fit"]["n_points"] >= 2
    assert payload["n_samples"] == 20000
    assert payload["n_unterminated"] == 0
    assert payload["warnings"] == []


def test_member_reports_unterminated_walks(tmp_path, monkeypatch):
    # the CLI cannot set max_steps; a 30-step budget leaves about half of the
    # slit-plane walks running, and the verdict rests on the other half
    monkeypatch.setattr(cli, "WosConfig", functools.partial(WosConfig, max_steps=30))
    slit = tmp_path / "slit.json"
    dump_domain(Sector(2 * math.pi, 1.0), str(slit))
    out = tmp_path / "out"
    rc = main(["member", "--domain", str(slit), "--samples", "20000",
               "--p", "0.25", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "member.json")
    assert payload["n_samples"] == 20000
    assert payload["n_unterminated"] > 0.01 * 20000
    assert payload["warnings"] == ["unterminated_walks"]


def test_member_bergman_space_verdict(tmp_path, halfplane_json):
    out = tmp_path / "out"
    rc = main(["member", "--domain", halfplane_json, "--samples", "20000",
               "--grid", "2,2,10", "--p", "3.0", "--alpha", "0.0",
               "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "member.json")
    assert payload["alpha"] == 0.0
    assert payload["query_ratio"] == 1.5  # p / (alpha + 2)
    assert payload["verdict"] == "not_member"


def test_member_on_empty_tails(tmp_path, disk_exterior_json, capsys):
    disk = tmp_path / "disk.json"
    disk.write_text('{"shape": "disk", "radius": 1.0, "basepoint": [0.0, 0.0]}')
    out = tmp_path / "out"
    # a bounded domain is in every H^p and A^p_alpha
    rc = main(["member", "--domain", str(disk), "--samples", "2000",
               "--p", "2.5", "--alpha", "1.0", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "member.json")
    assert payload["verdict"] == "member"
    assert payload["fit"]["q"] == "inf"

    # report has no finite slope to draw and says so
    rc = main(["report", "--domain", str(disk), "--samples", "2000", "--out", str(out)])
    assert rc == 2
    assert "no decay slope to plot" in capsys.readouterr().err
    assert not (out / "report.gp").exists()

    # the empty tail of a non-regular domain is not a decay rate
    rc = main(["member", "--domain", disk_exterior_json, "--samples", "500",
               "--grid", "2,2,5", "--p", "0.5", "--out", str(tmp_path / "ext")])
    assert rc == 2
    assert "non-regular" in capsys.readouterr().err


def test_hardy_value_is_the_member_fit(tmp_path, halfplane_json):
    slit = tmp_path / "slit.json"
    dump_domain(Sector(2 * math.pi, 1.0), str(slit))
    for domain in (halfplane_json, str(slit)):
        common = ["--domain", domain, "--samples", "20000", "--seed", "7",
                  "--grid", "2,2,12", "--window", "3"]
        assert main(["hardy", *common, "--out", str(tmp_path / "h")]) == 0
        assert main(["member", *common, "--p", "0.5", "--out", str(tmp_path / "m")]) == 0
        hardy = read_json(tmp_path / "h" / "hardy.json")
        fit = read_json(tmp_path / "m" / "member.json")["fit"]
        assert hardy["value"] == fit["q"]
        assert hardy["used_radii"] == fit["fit_range"]


def test_member_requires_p(tmp_path, halfplane_json):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--domain", halfplane_json, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


# ---- norms ------------------------------------------------------------------


def test_norms_writes_catalog_profiles(tmp_path):
    out = tmp_path / "out"
    rc = main(["norms", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "norms.json")
    funcs = payload["functions"]
    assert set(funcs) == {"cayley", "sector_power_half", "exp_cayley", "identity"}
    assert funcs["identity"]["hardy_classification"] == "bounded"
    assert funcs["identity"]["h_hat"] == "inf"
    assert funcs["exp_cayley"]["bergman_classification"] == "unbounded"
    assert abs(funcs["cayley"]["h_hat"] - 1.0) <= 0.05
    csv = (out / "norms_cayley_hardy.csv").read_text().splitlines()
    assert csv[0] == "gap,log_value,slope"
    assert len(csv) > 2


def test_norms_builds_one_table_per_base_map(tmp_path, monkeypatch):
    # the sector's map is the half-plane's to a power, so the four maps take
    # three tables, and each is freed before the next one is built
    built = []
    init = function_norms.NodeTable.__init__

    def counted_init(table, d):
        assert all(logs() is None for _, logs in built), "a table outlived its maps"
        init(table, d)
        built.append((repr(d), weakref.ref(table._circles)))

    monkeypatch.setattr(function_norms.NodeTable, "__init__", counted_init)
    assert main(["norms", "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _ in built] == [
        repr(HalfPlane()), repr(DiskExterior(1.0, basepoint=math.e)), repr(Disk(1.0))]


def test_norms_work_is_pinned(tmp_path, monkeypatch):
    # one norms call at the default p: the 8 growth CSVs, and empirical_hb's
    # two probes per side at P_MAX and P_MAX/2 (one on the identity, bounded
    # at P_MAX), 22 growth profiles; each new exponent of a set of circles
    # costs one exp pass, 40 in all, the sector's partly from the memo
    calls = {"profiles": 0, "exp_passes": 0}

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("hardy_growth_profile", "bergman_growth_profile"):
        monkeypatch.setattr(function_norms, name, counted(getattr(function_norms, name), "profiles"))
    monkeypatch.setattr(function_norms._Circles, "_log_means",
                        counted(function_norms._Circles._log_means, "exp_passes"))
    assert main(["norms", "--out", str(tmp_path / "out")]) == 0
    assert calls["profiles"] <= 22 and calls["exp_passes"] <= 40, calls


@pytest.mark.parametrize("flags, named", [
    (["--alpha", "-2"], "weight alpha"),
    (["--alpha", "-1"], "weight alpha"),
    (["--alpha", "nan"], "weight alpha"),
    (["--p", "nan"], "exponent p"),
    (["--p", "-1"], "exponent p"),
    (["--p", "0"], "exponent p"),
    (["--p", "inf"], "exponent p"),
    # the growth classifier probes p up to P_MAX only
    (["--p", "8.5"], "P_MAX"),
    (["--p", "1e5"], "P_MAX"),
], ids=["alpha_-2", "alpha_-1", "alpha_nan", "p_nan", "p_-1", "p_0", "p_inf", "p_8.5", "p_1e5"])
def test_norms_rejects_invalid_exponents(tmp_path, capsys, monkeypatch, flags, named):
    # the exponents are checked before the first node table is built
    def no_table(f):
        raise AssertionError("norms built a node table before checking its exponents")

    monkeypatch.setattr(function_norms, "NodeTable", no_table)
    out = tmp_path / "out"
    assert main(["norms", *flags, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "norms.json").exists()


# the known Hardy and Bergman numbers (h, b) of each catalog map
CATALOG_EXPONENTS = {
    "cayley": (1.0, 1.0),
    "sector_power_half": (2.0, 2.0),
    "exp_cayley": (0.0, 0.0),
    "identity": (math.inf, math.inf),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("p", [0.5, 1.5, 2.5])
def test_norms_classifies_the_catalog(tmp_path, p, alpha):
    # each p lies at least 0.5 from every critical exponent: the Hardy profile
    # is bounded iff p < h and the Bergman profile iff p < b (alpha + 2)
    out = tmp_path / "out"
    assert main(["norms", "--p", str(p), "--alpha", str(alpha), "--out", str(out)]) == 0
    funcs = read_json(out / "norms.json")["functions"]
    assert set(funcs) == set(CATALOG_EXPONENTS)
    bounded = lambda below: "bounded" if below else "unbounded"
    for name, (h, b) in CATALOG_EXPONENTS.items():
        entry = funcs[name]
        assert entry["hardy_classification"] == bounded(p < h), name
        assert entry["bergman_classification"] == bounded(p < b * (alpha + 2.0)), name
        for kind, exact in (("h", h), ("b", b)):
            lo, hi = map(float, entry[f"{kind}_bracket"])
            assert lo <= exact <= hi, (name, kind)


def test_norms_probes_up_to_p_max(tmp_path):
    out = tmp_path / "out"
    assert main(["norms", "--p", "8", "--out", str(out)]) == 0
    identity = read_json(out / "norms.json")["functions"]["identity"]
    assert identity["hardy_classification"] == identity["bergman_classification"] == "bounded"


def test_member_takes_exponents_above_p_max(tmp_path, halfplane_json):
    # the domain side compares any p with the fitted q; only the function
    # side's growth classifier stops at P_MAX
    out = tmp_path / "out"
    assert main(["member", "--domain", halfplane_json, "--samples", "2000",
                 "--p", "20", "--out", str(out)]) == 0
    assert read_json(out / "member.json")["verdict"] == "not_member"


@pytest.mark.parametrize("flags, named", [
    (["--p", "1", "--alpha", "inf"], "weight alpha"),
    (["--p", "1", "--alpha", "nan"], "weight alpha"),
    (["--p", "inf"], "exponent p"),
    (["--p", "1e400"], "exponent p"),
    (["--p", "nan"], "exponent p"),
    (["--p", "inf", "--alpha", "0"], "exponent p"),
], ids=["alpha_inf", "alpha_nan", "p_inf", "p_1e400", "p_nan", "p_inf_bergman"])
def test_member_rejects_non_finite_exponents(tmp_path, halfplane_json, capsys, flags, named):
    out = tmp_path / "out"
    assert main(["member", "--domain", halfplane_json, "--samples", "200", *flags,
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "member.json").exists()


# ---- verify -----------------------------------------------------------------


def test_verify_runs_all_checks(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["verify", "--samples", "20000", "--out", str(out)])
    assert rc == 0
    assert "verification passed: 13 checks" in capsys.readouterr().out
    payload = read_json(out / "verify.json")
    assert len(payload) == 13
    assert all(entry["passed"] for entry in payload)
    kinds = {entry["name"] for entry in payload}
    assert "mc_vs_oracle_half_plane" in kinds
    assert "mc_vs_oracle_right_angle_sector" in kinds
    assert "circle_average_vs_tail" in kinds


# ---- report -----------------------------------------------------------------


def test_report_emits_gnuplot_template(tmp_path, halfplane_json):
    out = tmp_path / "out"
    rc = main(["report", "--domain", halfplane_json, "--samples", "2000",
               "--grid", "2,2,6", "--out", str(out)])
    assert rc == 0
    text = (out / "report.gp").read_text()
    assert "plot" in text
    assert "profile.csv" in text
    assert "{" not in text  # every placeholder was substituted
    assert (out / "profile.csv").exists()


# ---- serialization format -----------------------------------------------------


def test_floats_survive_json_round_trip_exactly(tmp_path, halfplane_json):
    out = tmp_path / "out"
    main(["hm", "--domain", halfplane_json, "--samples", "2000",
          "--grid", "2,2,5", "--out", str(out)])
    text = (out / "profile.csv").read_text()
    for line in text.splitlines()[1:]:
        omega = line.split(",")[1]
        # 17 significant digits reproduce the double exactly
        assert float(omega) == float(repr(float(omega)))
        assert "e" in omega or "." in omega or omega in {"0", "1"}


def test_non_finite_values_serialized_as_strings(tmp_path, disk_exterior_json):
    out = tmp_path / "out"
    main(["hardy", "--domain", disk_exterior_json, "--samples", "500",
          "--grid", "2,2,5", "--window", "2", "--out", str(out)])
    raw = (out / "hardy.json").read_text()
    assert '"inf"' in raw
    payload = json.loads(raw)  # still plain JSON, no NaN extensions
    assert payload["value"] == "inf"


# ---- determinism ---------------------------------------------------------------


def test_byte_identical_reruns(tmp_path, halfplane_json):
    args = ["hardy", "--domain", halfplane_json, "--samples", "5000",
            "--grid", "2,2,8", "--seed", "7"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out / "hardy.json").read_bytes()
                    + (out / "profile.csv").read_bytes())
    assert outs[0] == outs[1]


def test_chunk_size_never_changes_artifacts(tmp_path, halfplane_json):
    base = ["hm", "--domain", halfplane_json, "--samples", "5000",
            "--grid", "2,2,6", "--seed", "3"]
    blobs = []
    for chunk in ("512", "5000", "999983"):
        out = tmp_path / f"c{chunk}"
        assert main(base + ["--chunk", chunk, "--out", str(out)]) == 0
        blobs.append((out / "profile.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# ---- failure modes ---------------------------------------------------------------


def test_missing_domain_file_exits_2(tmp_path, capsys):
    rc = main(["hardy", "--domain", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.strip() != ""


@pytest.mark.parametrize("text, named", [
    ('{"shape": "sector", "basepoint": [1.0, 0.0]}', "'opening'"),
    ('{"shape": "disk_exterior", "basepoint": [2.0, 0.0]}', "'radius'"),
    ('[{"shape": "half_plane"}]', "JSON object"),
    ('{"shape": "half_plane", "basepoint": "x"}', "'basepoint'"),
    ('{"shape": "half_plane", "basepoint": [1.0, 0.0, 0.0]}', "'basepoint'"),
    ('{"shape": "disk", "radius": 1.0, "basepoint": 0.0, "center": [0.0, "y"]}', "'center'"),
    ('not json', "dom.json is not valid JSON"),
    ('{"shape": "disk", "radius": 1, "centre": [5, 0]}', "'centre'"),
    ('{"shape": ["disk"]}', "unknown shape"),
], ids=["no_opening", "no_radius", "not_an_object", "basepoint_string", "basepoint_triple",
        "center_not_numbers", "not_json", "unread_field", "shape_not_a_string"])
def test_malformed_domain_file_exits_2(tmp_path, capsys, text, named):
    dom = tmp_path / "dom.json"
    dom.write_text(text)
    rc = main(["hardy", "--domain", str(dom), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_malformed_grid_exits_2(tmp_path, halfplane_json, capsys, monkeypatch):
    def no_walks(d, cfg):
        raise AssertionError("a walk ran on a rejected grid")

    monkeypatch.setattr(wos, "_exit_moduli", no_walks)
    # each message names the grid field that is wrong; a count over the cap
    # is rejected before its radii are built
    too_many = cli.MAX_GRID_COUNT + 1
    for grid, named in (("banana", "r0,ratio,count"), ("2,2,1e3", "grid count '1e3'"),
                        ("a,2,3", "grid r0 'a'"), ("2,x,3", "grid ratio 'x'"),
                        (f"1,1.0000001,{too_many}", f"grid count {too_many}")):
        rc = main(["hardy", "--domain", halfplane_json, "--grid", grid,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err


def test_grid_where_every_walk_is_beyond_exits_2(tmp_path, halfplane_json, capsys):
    # omega = 1 at all three radii: log(1/omega) = 0 says nothing about the
    # decay, so no q is fitted (it read q = 0 with a zero half-width)
    rc = main(["hardy", "--domain", halfplane_json, "--grid", "1e-320,2,3",
               "--samples", "1000", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "fewer than two informative profile entries" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overflowing_grid_exits_2(tmp_path, halfplane_json, capsys):
    # 2 * 2**1999 overflows a float: one line on stderr, not a traceback
    rc = main(["hardy", "--domain", halfplane_json, "--samples", "2000",
               "--grid", "2,2,2000", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid radius") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_2(tmp_path, halfplane_json, capsys, seed):
    # stream_keys keeps the low 64 bits: 2**64 would rerun seed 0, -1 seed 2**64 - 1
    for command in (["hm", "--domain", halfplane_json], ["verify"]):
        rc = main([*command, "--samples", "200", "--seed", seed, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_positive_window_exits_2(tmp_path, halfplane_json, capsys, monkeypatch):
    def no_walks(d, cfg):
        raise AssertionError("a walk ran before the window was checked")

    monkeypatch.setattr(wos, "_exit_moduli", no_walks)
    for command in (["hardy"], ["member", "--p", "0.5"], ["report"]):
        rc = main([*command, "--domain", halfplane_json, "--samples", "2000",
                   "--window", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "tail_window must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_PROFILE_FLAGS = {"--domain", "--grid", "--seed", "--samples", "--chunk", "--out"}
CLI_SURFACE = {
    "hm": _PROFILE_FLAGS,
    "hardy": _PROFILE_FLAGS | {"--window"},
    "report": _PROFILE_FLAGS | {"--window"},
    "member": _PROFILE_FLAGS | {"--window", "--p", "--alpha"},
    "norms": {"--p", "--alpha", "--out"},
    "verify": {"--seed", "--samples", "--chunk", "--out"},
}


def _subparsers():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_surface(command):
    # each subcommand takes exactly the flags it reads
    options = {opt for action in _subparsers()[command]._actions
               for opt in action.option_strings if opt not in ("-h", "--help")}
    assert options == CLI_SURFACE[command]


def test_cli_surface_lists_every_command():
    assert set(_subparsers()) == set(CLI_SURFACE)
    assert sum(len(flags) for flags in CLI_SURFACE.values()) == 36


@pytest.mark.parametrize("argv", [
    ["norms", "--seed", "1"],
    ["norms", "--samples", "0"],
    ["verify", "--grid", "2,2,3"],
    ["verify", "--domain", "x.json"],
    ["hm", "--domain", "x.json", "--window", "3"],
], ids=["norms_seed", "norms_samples", "verify_grid", "verify_domain", "hm_window"])
def test_unread_flags_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_sector_domain_via_json(tmp_path):
    dom = tmp_path / "sector.json"
    dump_domain(Sector(math.pi / 2, 1.0), str(dom))
    out = tmp_path / "out"
    rc = main(["hardy", "--domain", str(dom), "--samples", "20000",
               "--grid", "2,2,9", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "hardy.json")
    assert 1.4 <= payload["value"] <= 2.6
