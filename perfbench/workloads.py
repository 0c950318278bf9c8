"""The benchmark's four workloads: jobs, seeded inputs and correctness checks.

A job is either a `groundlab` command line, run through `groundlab.cli.main`
exactly as a user types it, or one of three library calls the command line
cannot reach (`boltzmann_exact`, `freq_bounds_scan`, `word_measure`).

The workload seed sets the Gibbs chain seeds and picks the positive epsilon of
the selector `perturb`; nothing else depends on it.  With the default seed
every artifact must match the sha256 recorded in `digests.json`; seed-free
artifacts are held to their digest under every seed.  Each job also checks
exact identities that hold under any seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple

DEFAULT_SEED = 0
WORKLOADS = ("gibbs-local", "gibbs-scan", "flow", "tables")
DIGESTS = Path(__file__).with_name("digests.json")

# The acceptance-7 toy: two free tiles, one forbidden domino "A B".
TOY_POTENTIAL = {"patterns": [{"rows": [["A", "B"]], "weight": [1, 1]}]}


@dataclass(frozen=True)
class Job:
    id: str
    argv: Tuple[str, ...] = ()      # CLI argv without the output flag
    out_flag: str = ""              # "--csv" or "--out"
    suffix: str = ""                # artifact file suffix
    call: Optional[Callable] = None  # library call, for non-CLI jobs
    work: str = ""                  # "proposals" or "rows": counted as work
    seeded: bool = False            # artifact bytes depend on the seed

    def artifact(self, out: Path) -> Path:
        return out / f"{self.id}{self.suffix}"

    def full_argv(self, out: Path) -> List[str]:
        return [*self.argv, self.out_flag, str(self.artifact(out))]

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def chain_seed(seed: int, i: int) -> str:
    return str(seed * 10 + i)


def positive_epsilon(seed: int) -> str:
    rng = random.Random(seed)
    return f"{rng.randint(1, 999)}/{rng.randint(1, 999)}"


# ---------------------------------------------------------- library calls ---

def _toy():
    from groundlab.gibbs import Potential
    from groundlab.tiles import EdgeLabel, Tile, Tileset
    lab = EdgeLabel(None, None, None, None, None)
    tiles = Tileset([Tile("A", lab, lab, lab, lab), Tile("B", lab, lab, lab, lab)])
    return tiles, Potential.from_json(json.dumps(TOY_POTENTIAL))


def call_boltzmann():
    from groundlab.gibbs import boltzmann_exact
    tiles, potential = _toy()
    return boltzmann_exact(tiles, potential, 4, 1.0)


def call_freq_bounds_scan():
    from groundlab.layers import freq_bounds_scan
    return freq_bounds_scan(10 ** 6)


def call_word_measure():
    from groundlab.machines import corpus, word_measure
    return word_measure(corpus()["parity"], 16)


def _hexfrac(q: Fraction) -> str:
    return f"{q.numerator:x}/{q.denominator:x}"


def canonical(job: Job, result) -> Iterable[bytes]:
    """num/den serialization of a library result, in chunks, for hashing."""
    if job.call is call_boltzmann:
        for key in sorted(result.probabilities):
            cells = "".join(map(str, key))
            yield (f"{cells} {_hexfrac(result.energies[key])} "
                   f"{_hexfrac(result.probabilities[key])}\n").encode()
    elif job.call is call_freq_bounds_scan:
        yield (f"kmax={result.kmax} monotone={result.monotone} "
               f"bounded={result.bounded} lo={_hexfrac(result.final_lo)} "
               f"hi={_hexfrac(result.final_hi)}\n").encode()
    else:
        yield f"depth={result.depth}\n".encode()
        for word, w in sorted(result.as_dict().items()):
            yield f"{word} {_hexfrac(w)}\n".encode()


# ------------------------------------------------------------------ jobs ---

def jobs(workload: str, seed: int, out: Path) -> List[Job]:
    """The jobs of one workload run, in the order they run."""
    if workload == "gibbs-local":
        robinson = ("gibbs", "--tileset", "robinson", "--side", "8",
                    "--steps", "30")
        return [
            Job("gibbs-robinson-b1", (*robinson, "--beta", "1", "--seed",
                chain_seed(seed, 0)), "--csv", ".csv", work="proposals",
                seeded=True),
            Job("gibbs-robinson-b3", (*robinson, "--beta", "3", "--seed",
                chain_seed(seed, 1)), "--csv", ".csv", work="proposals",
                seeded=True),
            Job("gibbs-toy", ("gibbs", "--tileset", "free:2", "--potential",
                              str(out / "toy-potential.json"), "--side", "2",
                              "--beta", "1", "--steps", "30000", "--seed",
                              chain_seed(seed, 2)),
                "--csv", ".csv", work="proposals", seeded=True),
        ]
    if workload == "gibbs-scan":
        return [
            Job("gibbs-scan", ("gibbs", "--tileset", "robinson", "--side", "16",
                               "--beta", "0", "--markers", "3", "--steps",
                               "1000", "--cadence", "500", "--seed",
                               chain_seed(seed, 0)),
                "--csv", ".csv", work="proposals", seeded=True),
            Job("boltzmann-toy-side4", call=call_boltzmann),
        ]
    if workload == "flow":
        perturb = ("perturb", "--base", "constant-u", "--target", "parity",
                   "--depth", "2", "--horizon", "16")
        return [
            Job("measure-flow", ("measure-flow", "--machine", "parity",
                                 "--depth", "2", "--kmax", "32"),
                "--csv", ".csv", work="rows"),
            Job("perturb-mixture", (*perturb, "--epsilon", "0"), "--out",
                ".json", work="rows"),
            # every positive epsilon gives the same report, so its digest is
            # seed-free even though epsilon is not
            Job("perturb-selector", (*perturb, "--epsilon",
                                     positive_epsilon(seed)),
                "--out", ".json", work="rows"),
            Job("word-measure-parity16", call=call_word_measure),
        ]
    if workload == "tables":
        return [
            Job("freq-exact", ("freq", "--kmax", "1000", "--mode", "exact"),
                "--csv", ".csv", work="rows"),
            Job("freq-float", ("freq", "--kmax", "1000000", "--mode", "float"),
                "--csv", ".csv", work="rows"),
            Job("freq-bounds-scan", call=call_freq_bounds_scan),
            Job("thermo", ("thermo", "--kmin", "1", "--kmax", "12"), "--csv",
                ".csv", work="rows"),
            Job("render", ("render", "--scale", "6"), "--out", ".svg"),
            Job("verify-markers", ("verify-markers", "--scale", "4"), "--out",
                ".json"),
            Job("acc", ("acc", "--sequence", "sweep", "--connect", "true"),
                "--out", ".json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def prepare_inputs(workload: str, out: Path) -> None:
    if workload == "gibbs-local":
        (out / "toy-potential.json").write_text(json.dumps(TOY_POTENTIAL))


# One job per workload is replayed through its emitted --config sidecar.
REPLAY = {"gibbs-local": "gibbs-toy", "gibbs-scan": "gibbs-scan",
          "flow": "perturb-selector", "tables": "thermo"}


def work_units(job: Job, text: str) -> int:
    """Metropolis proposals, or data rows the job emitted."""
    if job.work == "proposals":
        return int(job.arg("--steps"))
    if job.work == "rows":
        if job.suffix == ".json":
            return len(json.loads(text)["rows"])
        return text.count("\n") - 1
    return 0


# ---------------------------------------------------------------- checks ---

class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _check_gibbs(job: Job, text: str, ctx: dict):
    lines = text.splitlines()
    require(lines[0] == "step,energy,coverage", "bad trace header")
    rows = [line.split(",") for line in lines[1:]]
    steps = [int(r[0]) for r in rows]
    require(steps[0] == 0 and steps[-1] == int(job.arg("--steps")),
            "trace misses an end")
    require(all(a < b for a, b in zip(steps, steps[1:])), "steps not rising")
    require(all(float(r[1]) >= 0 for r in rows), "negative energy")
    if "--markers" in job.argv:
        require(all(0 <= float(r[2]) <= 1 for r in rows), "coverage range")
    else:
        require(all(r[2] == "" for r in rows), "unexpected coverage")


def _check_measure_flow(job: Job, text: str, ctx: dict):
    lines = text.splitlines()
    require(lines[0] == "k,blocked_mass,residual,dist_to_target", "header")
    ks = []
    for line in lines[1:]:
        k, mass, res, dist = line.split(",")
        ks.append(int(k))
        require(Fraction(mass) + Fraction(res) == 1,
                 f"blocked mass + residual != 1 at k={k}")
        require(dist == "" or Fraction(dist) >= 0, "negative distance")
    want = range(int(job.arg("--depth")), int(job.arg("--kmax")) + 1)
    require(ks == list(want), "k rows do not run from depth to kmax")


def _check_perturb(job: Job, text: str, ctx: dict):
    doc = json.loads(text)
    mixture = job.arg("--epsilon") == "0"
    require(doc["mode"] == ("mixture" if mixture else "selector"), "mode")
    for row in doc["rows"]:
        total = sum((Fraction(*w) for w in row["raw"]),
                    Fraction(*row["residual"]))
        require(total == 1, f"row k={row['k']} does not sum to 1")


def _check_boltzmann(job: Job, result, ctx: dict):
    require(len(result.probabilities) == 2 ** 16, "not every configuration")
    require(sum(result.probabilities.values()) == 1,
            "Boltzmann probabilities do not sum to exactly 1")


def _check_word_measure(job: Job, result, ctx: dict):
    require(result.depth == 4 and result.as_dict() == {
        "uuuu": Fraction(1, 2), "dddd": Fraction(1, 2)},
        "parity word measure at k=16 is not 1/2 uuuu + 1/2 dddd")


def _check_scan(job: Job, result, ctx: dict):
    require(result.monotone and result.bounded,
            "freq_bounds_scan is not monotone and bounded")


def _check_freq_exact(job: Job, text: str, ctx: dict):
    from groundlab.layers import default_schedule, freq_frozen
    lines = text.splitlines()
    require(len(lines) == 1002 and lines[1] == "0,0/1", "freq rows")
    require(Fraction(lines[-1].split(",")[1])
            == freq_frozen(1000, default_schedule()),
            "freq at k=1000 differs from freq_frozen")


def _float_cell(cell: str) -> float:
    # Under numpy 2 the float mode writes each value as its numpy repr,
    # "np.float64(0.25)"; the digest pins those bytes, the value is read here.
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _check_freq_float(job: Job, text: str, ctx: dict):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    require([int(r[0]) for r in rows] == list(range(10 ** 6 + 1)), "k rows")
    values = [_float_cell(r[1]) for r in rows]
    require(all(0 <= a <= b <= 1 for a, b in zip(values, values[1:])),
            "float frozen fraction not monotone within [0, 1]")
    scan = ctx.get("freq-bounds-scan")
    require(scan is not None and abs(values[-1] - float(scan.final_lo)) < 1e-9,
            "float freq at 10^6 outside the interval scan")


def _check_thermo(job: Job, text: str, ctx: dict):
    lines = text.splitlines()
    require(len(lines) == 13 and lines[0].startswith("k,"), "thermo rows")
    require(all(not line.endswith(",fail") for line in lines[1:]),
            "entropy criterion failed")


def _check_render(job: Job, text: str, ctx: dict):
    require(text.startswith("<svg ") and text.endswith("</svg>\n"), "svg")


def _check_markers(job: Job, text: str, ctx: dict):
    doc = json.loads(text)
    require(doc["nonoverlap"] == "ok" and doc["patterns"] == 4, "markers")


def _check_acc(job: Job, text: str, ctx: dict):
    doc = json.loads(text)
    require(bool(doc["representatives"]), "no representatives")
    require(Fraction(*doc["hausdorff"]) <= Fraction(*doc["resolution"]),
            "net radius exceeded")


CHECKS = {
    "gibbs-robinson-b1": _check_gibbs,
    "gibbs-robinson-b3": _check_gibbs,
    "gibbs-toy": _check_gibbs,
    "gibbs-scan": _check_gibbs,
    "boltzmann-toy-side4": _check_boltzmann,
    "measure-flow": _check_measure_flow,
    "perturb-mixture": _check_perturb,
    "perturb-selector": _check_perturb,
    "word-measure-parity16": _check_word_measure,
    "freq-exact": _check_freq_exact,
    "freq-float": _check_freq_float,
    "freq-bounds-scan": _check_scan,
    "thermo": _check_thermo,
    "render": _check_render,
    "verify-markers": _check_markers,
    "acc": _check_acc,
}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_of(chunks: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
