"""The benchmark's three workloads: task plans, known answers and output checks.

A workload is an endless sequence of cycles and a cycle is a list of tasks.
Every input a task needs is drawn from the workload seed with
``random.Random``, so one seed names the same inputs on every run no matter
how many cycles a run gets through. A task is a list of steps, each either
an in-process CLI call (``hardynum.cli.main(argv)``) or a public API call.
After a task runs, its check reads the artifacts and returns the problems it
found; the known answers come from closed forms, never from the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hardynum
from hardynum import DiskExterior, WosConfig

# Hardy numbers of the CLI domains: q = 1 for a half-plane and pi/opening
# for a sector with its vertex at the origin; a bounded disk has q = inf.
DOMAINS = {
    "half_plane": ({"shape": "half_plane", "basepoint": [1.0, 0.0]}, 1.0),
    "slit_plane": ({"shape": "sector", "opening": 2.0 * math.pi, "basepoint": [1.0, 0.0]}, 0.5),
    "right_sector": ({"shape": "sector", "opening": 0.5 * math.pi, "basepoint": [1.0, 0.0]}, 2.0),
    "disk": ({"shape": "disk", "radius": 1.0, "basepoint": [0.0, 0.0]}, math.inf),
}

# (Hardy number h, unweighted Bergman number b) of the catalog functions
# written by `hardynum norms`.
CATALOG_EXPONENTS = {
    "cayley": (1.0, 1.0),
    "sector_power_half": (2.0, 2.0),
    "exp_cayley": (0.0, 0.0),
    "identity": (math.inf, math.inf),
}

MC_GROSS_REL_ERROR = 0.25  # a hardy.json q further than this from the oracle fails
REACH_REL_STDERR = 0.05  # a profile radius counts as reached when stderr/omega <= this
DETERMINISM_CHUNK = 10007  # the chunk size of the determinism re-run
MEMBER_SAMPLES = 20_000
# The disk-member queries exit 2 at this commit ("profile is identically
# zero; no decay rate to fit"). They stay in the mix and count as failed.
KNOWN_DEFECT = "profile is identically zero"


@dataclass
class Step:
    """One call: ``argv`` for the in-process CLI, or ``api`` for a library call."""

    label: str
    argv: list[str] | None = None
    api: Callable[[], object] | None = None


@dataclass
class Task:
    index: int
    label: str
    steps: list[Step]
    out: Path
    # check(task) -> (problems, [(estimate, truth)], [tail reach log2])
    check: Callable[["Task"], tuple[list[str], list[tuple[float, float]], list[float]]]
    known_defect: str | None = None
    extra: dict = field(default_factory=dict)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tail_reach_log2(radii, omegas, stderrs) -> float:
    """log2(r*/r0), r* the largest radius whose relative stderr is <= 5%."""
    reached = [r for r, w, s in zip(radii, omegas, stderrs) if w > 0.0 and s / w <= REACH_REL_STDERR]
    return math.log2(max(reached) / radii[0]) if reached else 0.0


def profile_csv_reach(path: Path) -> float:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    cols = [[float(x) for x in row.split(",")[:3]] for row in rows]
    return tail_reach_log2(*zip(*cols))


def write_domains(inputs: Path) -> dict[str, str]:
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (spec, _q) in DOMAINS.items():
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# mc_tail: `hardynum hardy` at the CLI defaults, half-plane then slit plane


def _check_hardy_pair(task: Task) -> tuple[list[str], list, list]:
    problems, pairs, reaches = [], [], []
    for name in ("half_plane", "slit_plane"):
        out = task.out / name
        q_true = DOMAINS[name][1]
        try:
            q_hat = float(_read_json(out / "hardy.json")["value"])
            reaches.append(profile_csv_reach(out / "profile.csv"))
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{name}: unreadable artifact: {exc}")
            continue
        if not (math.isfinite(q_hat) and abs(q_hat / q_true - 1.0) <= MC_GROSS_REL_ERROR):
            problems.append(f"{name}: q = {q_hat!r}, oracle {q_true}")
        else:
            pairs.append((q_hat, q_true))
    return problems, pairs, reaches


def hardy_pair_steps(domains: dict[str, str], seed: int, out: Path, chunk: int | None = None):
    steps = []
    for name in ("half_plane", "slit_plane"):
        argv = ["hardy", "--domain", domains[name], "--seed", str(seed), "--out", str(out / name)]
        if chunk is not None:
            argv += ["--chunk", str(chunk)]
        steps.append(Step(f"hardy {name} seed={seed}", argv=argv))
    return steps


def mc_tail_cycles(seed: int, domains: dict[str, str], out: Path):
    rng = random.Random(seed)
    index = 0
    while True:
        s = _seed(rng)
        # the first task keeps its own directory for the determinism re-run
        task_out = out / ("first" if index == 0 else "task")
        yield [Task(index, f"hardy pair seed={s}", hardy_pair_steps(domains, s, task_out), task_out,
                    _check_hardy_pair, extra={"seed": s})]
        index += 1


def determinism_problems(task: Task, domains: dict[str, str], run_steps) -> list[str]:
    """Re-run an mc_tail task with another --chunk; artifacts must not change a byte."""
    again = task.out.parent / "determinism"
    problems = run_steps(hardy_pair_steps(domains, task.extra["seed"], again, DETERMINISM_CHUNK))
    for name in ("half_plane", "slit_plane"):
        for artifact in ("profile.csv", "hardy.json"):
            first, second = task.out / name / artifact, again / name / artifact
            if not (second.is_file() and first.read_bytes() == second.read_bytes()):
                problems.append(f"{name}/{artifact} differs at --chunk {DETERMINISM_CHUNK}")
    return problems


# ---------------------------------------------------------------------------
# norms_catalog: `hardynum norms` over the four catalog functions


def _expected_class(p: float, critical: float) -> str:
    return "bounded" if p < critical else "unbounded"


def _check_norms(task: Task) -> tuple[list[str], list, list]:
    p, alpha = task.extra["p"], task.extra["alpha"]
    problems, pairs = [], []
    try:
        functions = _read_json(task.out / "norms.json")["functions"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable norms.json: {exc}"], [], []
    for name, (h, b) in CATALOG_EXPONENTS.items():
        entry = functions.get(name)
        if entry is None:
            problems.append(f"{name}: missing from norms.json")
            continue
        for kind, exact in (("h", h), ("b", b)):
            lo, hi = (float(x) for x in entry[f"{kind}_bracket"])
            if not lo <= exact <= hi:
                problems.append(f"{name}: {kind}_bracket [{lo}, {hi}] misses {exact}")
            est = float(entry[f"{kind}_hat"])
            if math.isfinite(exact) and exact > 0.0:
                pairs.append((est, exact))
        want = (_expected_class(p, h), _expected_class(p, b * (alpha + 2.0)))
        got = (entry["hardy_classification"], entry["bergman_classification"])
        if got != want:
            problems.append(f"{name}: classification {got} at p={p} alpha={alpha}, expected {want}")
    return problems, pairs, []


def norms_cycles(seed: int, out: Path):
    rng = random.Random(seed)
    index = 0
    while True:
        p, alpha = rng.choice((0.5, 1.5, 2.5)), rng.choice((0.0, 1.0))
        argv = ["norms", "--p", str(p), "--alpha", str(alpha), "--out", str(out)]
        yield [Task(index, f"norms p={p} alpha={alpha}", [Step("norms", argv=argv)], out,
                    _check_norms, extra={"p": p, "alpha": alpha})]
        index += 1


# ---------------------------------------------------------------------------
# small_queries: member / verify / disk-exterior API calls, shuffled per cycle


def _check_member(task: Task) -> tuple[list[str], list, list]:
    try:
        member = _read_json(task.out / "member.json")
    except (OSError, ValueError) as exc:
        return [f"unreadable member.json: {exc}"], [], []
    problems = []
    if member["verdict"] != task.extra["expect"]:
        problems.append(f"verdict {member['verdict']!r}, expected {task.extra['expect']!r}")
    q_true = task.extra["q"]
    pairs = [(float(member["fit"]["q"]), q_true)] if math.isfinite(q_true) else []
    return problems, pairs, []


def _check_verify(task: Task) -> tuple[list[str], list, list]:
    try:
        entries = _read_json(task.out / "verify.json")
    except (OSError, ValueError) as exc:
        return [f"unreadable verify.json: {exc}"], [], []
    failed = [e["name"] for e in entries if not e["passed"]]
    return ([f"checks failed: {', '.join(failed)}"] if failed else []), [], []


def _check_disk_exterior(task: Task) -> tuple[list[str], list, list]:
    est = task.extra["results"].get("estimate")
    if est is None:
        return ["no estimate returned"], [], []
    problems = []
    if est.value != math.inf:
        problems.append(f"q = {est.value!r}, expected inf")
    if "non_regular_domain" not in est.warnings:
        problems.append(f"warnings {est.warnings!r} lack non_regular_domain")
    return problems, [], []


def _disk_exterior_steps(seed: int, results: dict) -> list[Step]:
    """estimate_profile + estimate_hardy_number through the public API.

    The CLI cannot set max_steps, and at its default budget of 1e6 steps a
    disk-exterior run takes about 30 s, so this task uses the test suite's
    tiny config (2000 walks, max_steps 20000).
    """
    d = DiskExterior(1.0, 2.5)
    cfg = WosConfig(n_samples=2_000, seed=seed, max_steps=20_000)

    def profile():
        results.clear()
        results["profile"] = hardynum.wos.estimate_profile(d, hardynum.hardy_estimator.default_grid(d), cfg)

    def estimate():
        results["estimate"] = hardynum.hardy_estimator.estimate_hardy_number(results["profile"])

    return [Step("estimate_profile disk_exterior", api=profile),
            Step("estimate_hardy_number disk_exterior", api=estimate)]


def small_query_cycles(seed: int, domains: dict[str, str], out: Path):
    rng = random.Random(seed)
    index = 0
    while True:
        cycle = []
        for name, (_spec, q) in DOMAINS.items():
            for factor in (0.5, 2.0):
                for space in ("hardy", "bergman"):
                    s = _seed(rng)
                    alpha = rng.choice((0.0, 1.0)) if space == "bergman" else None
                    beta = 1.0 if alpha is None else alpha + 2.0
                    # p / (alpha + 2) sits at factor * q; on the disk q = inf,
                    # so any finite p is a member
                    p = factor * q * beta if math.isfinite(q) else rng.choice((0.5, 1.5, 2.5))
                    expect = "member" if factor < 1.0 or not math.isfinite(q) else "not_member"
                    argv = ["member", "--domain", domains[name], "--samples", str(MEMBER_SAMPLES),
                            "--seed", str(s), "--p", repr(p), "--out", str(out)]
                    if alpha is not None:
                        argv += ["--alpha", repr(alpha)]
                    label = f"member {name} {space} p={p!r} alpha={alpha} seed={s}"
                    cycle.append(Task(0, label, [Step(label, argv=argv)], out, _check_member,
                                      KNOWN_DEFECT if name == "disk" else None,
                                      {"expect": expect, "q": q}))
        s = _seed(rng)
        label = f"verify seed={s}"
        argv = ["verify", "--samples", str(MEMBER_SAMPLES), "--seed", str(s), "--out", str(out)]
        cycle.append(Task(0, label, [Step(label, argv=argv)], out, _check_verify))
        s, results = _seed(rng), {}
        cycle.append(Task(0, f"disk_exterior api seed={s}", _disk_exterior_steps(s, results), out,
                          _check_disk_exterior, extra={"results": results}))
        rng.shuffle(cycle)
        for task in cycle:
            task.index = index
            index += 1
        yield cycle


@dataclass
class Workload:
    cycles: Callable[[int], object]  # seed -> iterator of task lists
    domains: dict[str, str]


def set_up(name: str, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and return its plan."""
    domains = write_domains(work / "inputs")
    out = work / "out"
    if name == "mc_tail":
        return Workload(lambda seed: mc_tail_cycles(seed, domains, out), domains)
    if name == "norms_catalog":
        return Workload(lambda seed: norms_cycles(seed, out / "task"), domains)
    if name == "small_queries":
        return Workload(lambda seed: small_query_cycles(seed, domains, out / "task"), domains)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_tail", "norms_catalog", "small_queries")
