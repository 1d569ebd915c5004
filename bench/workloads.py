"""Job lists of the three workloads, generated from a seed.

The amount of work in a workload is fixed: the seed picks only the sine-mode
amplitudes, the Robin and flux coefficients and the job order, so every seed
times the same grids, schemes and step counts.  ``oracle_cli`` jobs are fixed
CLI invocations; there the seed picks the order only, so one set of golden
CSVs serves every seed.

This module imports nothing but heatlab and the standard library, because
the set-up probe imports it in a fresh interpreter and times it.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import heatlab as hl

BENCH_DIR = Path(__file__).resolve().parent
LENGTH = math.pi
NU = 1.0

WORKLOADS = ("march_large", "march_small", "oracle_cli")


AFFINE_K = (1.0, 0.2)      # k = a + b u of the affine ccn jobs


def general_k(u):
    """Diffusivity of the general-k nonlinear jobs, positive for every u."""
    return 1.0 + 0.25 * u * u


@dataclass
class MarchJob:
    """One ``run_simulation`` call and everything needed to rebuild it."""

    name: str
    scheme: hl.Scheme
    cells: int
    steps: int
    snapshot_every: int
    r: float
    bcs_spec: tuple          # ((kind, a, b, phi), (kind, a, b, phi))
    modes: tuple             # ((m, amplitude), ...)
    spike: float = 0.0       # amplitude of the highest grid mode
    diffusivity: str = "constant"
    expect_diverge: bool = False
    # filled by build()
    grid: Optional[hl.Grid1D] = None
    params: Optional[hl.SchemeParams] = None
    bcs: Optional[tuple] = None
    initial: Optional[hl.Field] = None

    @property
    def dirichlet_sine(self) -> bool:
        """Homogeneous Dirichlet ends and a pure sine-mode start."""
        return (self.spike == 0.0
                and all(kind == "dirichlet" and phi == 0.0
                        for kind, _, _, phi in self.bcs_spec))

    def build(self):
        grid = hl.build_uniform_grid(LENGTH, self.cells)
        dx = grid.dx
        if self.diffusivity == "affine":
            model = hl.DiffusivityModel.affine(*AFFINE_K)
        elif self.diffusivity == "general":
            model = hl.DiffusivityModel.general(general_k)
        else:
            model = hl.DiffusivityModel.constant(NU)
        dt = self.r * dx * dx / NU
        if self.scheme is hl.Scheme.HYPERBOLIC:
            # tau = nu dx; step at r times the limit dt = dx sqrt(tau / nu)
            tau = NU * dx
            dt = self.r * dx * math.sqrt(tau / NU)
            params = hl.SchemeParams(model, dt=dt, dx=dx, tau=tau)
        else:
            params = hl.SchemeParams(model, dt=dt, dx=dx)
        self.grid, self.params = grid, params
        self.bcs = tuple(_make_bc(spec) for spec in self.bcs_spec)
        self.initial = hl.sample_initial(self.profile(), grid)
        return self

    def profile(self):
        modes = [(m * math.pi / LENGTH, a) for m, a in self.modes]
        top = (self.cells - 1) * math.pi / LENGTH
        spike = self.spike

        def u0(x):
            value = sum(a * math.sin(k * x) for k, a in modes)
            return value + spike * math.sin(top * x)
        return u0

    def run(self) -> hl.RunRecord:
        return hl.run_simulation(self.initial, self.params, self.bcs,
                                 self.scheme, self.steps, self.snapshot_every)


@dataclass
class CliJob:
    """One in-process ``heatlab.cli.main`` invocation."""

    name: str
    argv: list
    expect_exit: int = 0

    @property
    def cells(self) -> int:
        """Cells of the largest grid the command builds (0 without a grid)."""
        sets = dict(item.split("=", 1) for item in self.argv if "=" in item)
        cells = int(sets.get("num_cells_N", 0))
        if "--refinements" in self.argv:
            cells <<= int(self.argv[self.argv.index("--refinements") + 1]) - 1
        return cells

    def config_overrides(self) -> Optional[tuple]:
        """(config file, --set overrides) when the command takes a config."""
        if "--set" not in self.argv and "--config" not in self.argv:
            return None
        path, overrides = None, []
        it = iter(self.argv)
        for token in it:
            if token == "--config":
                path = next(it)
            elif token == "--set":
                overrides.append(next(it))
        return path, overrides


def _make_bc(spec):
    kind, a, b, phi = spec
    if kind == "dirichlet":
        return hl.BoundaryCondition.dirichlet(phi)
    if kind == "flux":
        return hl.BoundaryCondition.flux(phi)
    return hl.BoundaryCondition.robin(a, b, phi)


def _bc_pair(kind_pair: str, rng: random.Random) -> tuple:
    """Seeded ends.  Robin ends are dissipative: b < 0 on the left, > 0 on the right."""
    specs = []
    for side, kind in zip((-1.0, 1.0), kind_pair.split("-")):
        if kind == "D":
            specs.append(("dirichlet", 0.0, 0.0, 0.0))
        elif kind == "F":
            specs.append(("flux", 0.0, 0.0, round(rng.uniform(-0.3, 0.3), 6)))
        else:
            a = round(rng.uniform(0.5, 2.0), 6)
            b = side * round(rng.uniform(0.5, 2.0), 6)
            specs.append(("robin", a, b, round(rng.uniform(-0.3, 0.3), 6)))
    return tuple(specs)


def _modes(rng: random.Random) -> tuple:
    return ((1, round(rng.uniform(0.6, 1.0), 6)),
            (2, round(rng.uniform(-0.3, 0.3), 6)),
            (3, round(rng.uniform(-0.3, 0.3), 6)))


_BC_CYCLE = ("D-D", "F-F", "R-R", "D-R", "F-D")

# march_large: (scheme, diffusivity, r, steps).  implicit and cn keep one
# matrix for the whole run, ccn with affine k reassembles it every step and
# cn_nonlinear with general k solves several times per step.
_LARGE_SCHEMES = (
    (hl.Scheme.IMPLICIT, "constant", 2.0, 4),
    (hl.Scheme.CRANK_NICOLSON, "constant", 1.0, 4),
    (hl.Scheme.CROSS_CN, "affine", 0.5, 4),
    (hl.Scheme.CN_NONLINEAR, "general", 0.5, 2),
    (hl.Scheme.SAULYEV, "constant", 1.0, 6),
)
# Nine sizes, so the 45 jobs put the p90 tail in the middle of one job's
# samples rather than between two jobs.
_LARGE_SIZES = tuple(round(1024 * 16 ** (k / 8)) for k in range(9))

# march_small: (label, scheme, r, diverges).  Divergent jobs
# carry a seeded amplitude of the highest grid mode, so the step at which
# they cross the divergence threshold is set by the data, not by round-off.
_SMALL_SCHEMES = (
    ("explicit", hl.Scheme.EXPLICIT, 0.4, False),
    ("dufort_frankel", hl.Scheme.DUFORT_FRANKEL, 1.0, False),
    ("hyperbolic", hl.Scheme.HYPERBOLIC, 0.8, False),
    ("saulyev", hl.Scheme.SAULYEV, 1.0, False),
    ("leapfrog", hl.Scheme.LEAPFROG, 0.25, True),
    ("explicit_r0.6", hl.Scheme.EXPLICIT, 0.6, True),
)
SMALL_CELLS = 64
SMALL_PER_SCHEME = 25


def march_large(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for s, (scheme, kind, r, steps) in enumerate(_LARGE_SCHEMES):
        for k, cells in enumerate(_LARGE_SIZES):
            pair = _BC_CYCLE[(s + k) % len(_BC_CYCLE)]
            jobs.append(MarchJob(
                name=f"L{len(jobs):02d}-{scheme.value}-N{cells}-{pair}",
                scheme=scheme, cells=cells, steps=steps, snapshot_every=steps,
                r=r, bcs_spec=_bc_pair(pair, rng), modes=_modes(rng),
                diffusivity=kind))
    rng.shuffle(jobs)
    return jobs


def march_small(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for s, (label, scheme, r, diverges) in enumerate(_SMALL_SCHEMES):
        for k in range(SMALL_PER_SCHEME):
            pair = _BC_CYCLE[(s + k) % len(_BC_CYCLE)]
            steps = 120 + 10 * k
            jobs.append(MarchJob(
                name=f"S{len(jobs):03d}-{label}-{pair}",
                scheme=scheme, cells=SMALL_CELLS, steps=steps,
                snapshot_every=1 if k % 3 == 0 else 20, r=r,
                bcs_spec=_bc_pair(pair, rng), modes=_modes(rng),
                spike=round(rng.uniform(1e-3, 1e-2), 6) if diverges else 0.0,
                expect_diverge=diverges))
    rng.shuffle(jobs)
    return jobs


_PI = "3.141592653589793"


def _sets(**keys) -> list:
    argv = []
    for key, value in keys.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _converge(scheme: str, rule: str) -> list:
    return (["converge", "--refinements", "4", "--dt-rule", rule]
            + _sets(scheme=scheme, nu=1, length_l=_PI, num_cells_N=32, dt=0.01,
                    initial="sine:1", num_steps=10))


def _bound(tau: str) -> list:
    return (["bound", "--tau", tau, "--horizon", "1"]
            + _sets(scheme="hyperbolic", nu=1, length_l=_PI, num_cells_N=64,
                    dt=0.001, initial="sine:1", num_steps=1))


SYMBOL_SCHEMES = "explicit,implicit,cn,leapfrog,dufort_frankel"
# Names of the jobs whose output holds the two documented red values.
SAULYEV_CONVERGE = "converge-saulyev-dx_3_2"
DISPERSION_TAUS = ("dispersion-tau1e-2", "dispersion-tau5e-3")


def oracle_cli(seed: int) -> list:
    """The README's CLI commands plus heavier variants of the oracle paths.

    Fifteen jobs: an odd count puts the p50 and p90 of the pooled latencies
    in the middle of one job's samples rather than between two jobs.
    """
    jobs = [
        # README commands
        CliJob("run-config", ["run", "--config", str(BENCH_DIR / "experiment.cfg"),
                              "--set", "num_steps=2000"]),
        CliJob("run-cfl-r0.6", ["run"] + _sets(
            scheme="explicit", nu=1, length_l=1, num_cells_N=64, r=0.6,
            initial="dirac", num_steps=200), expect_exit=2),
        CliJob("converge-cn-dx", _converge("cn", "dx")),
        CliJob("stability-readme", ["stability", "--schemes", SYMBOL_SCHEMES,
                                    "--r-values", "0.1,0.5,0.51,1,10"]),
        CliJob(DISPERSION_TAUS[0], ["dispersion", "--nu", "1", "--tau", "0.01",
                                    "--kappa-max", "8", "--samples", "101"]),
        CliJob("bound-tau1e-3", _bound("0.001")),
        CliJob("infospeed-explicit", ["infospeed"] + _sets(
            scheme="explicit", nu=1, length_l=1, num_cells_N=50, r=0.5,
            initial="dirac", num_steps=10)),
        # heavier variants
        CliJob("converge-cn-dx_3_2", _converge("cn", "dx_3_2")),
        CliJob("converge-hyperbolic-dx_3_2", _converge("hyperbolic", "dx_3_2")),
        CliJob("converge-implicit-dx2", _converge("implicit", "dx2")),
        CliJob(SAULYEV_CONVERGE, _converge("saulyev", "dx_3_2")),
        CliJob("stability-sweep", ["stability", "--schemes", SYMBOL_SCHEMES,
                                   "--r-values", ",".join(
                                       str(r) for r in (0.05, 0.1, 0.2, 0.25, 0.3,
                                                        0.4, 0.45, 0.5, 0.55, 0.75,
                                                        1, 2, 5, 10, 20))]),
        CliJob("bound-tau1e-2", _bound("0.01")),
        CliJob(DISPERSION_TAUS[1], ["dispersion", "--nu", "1", "--tau", "0.005",
                                    "--kappa-max", "8", "--samples", "101"]),
        CliJob("infospeed-dufort_frankel", ["infospeed"] + _sets(
            scheme="dufort_frankel", nu=1, length_l=1, num_cells_N=50, r=1,
            initial="dirac", num_steps=10)),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int) -> list:
    return {"march_large": march_large, "march_small": march_small,
            "oracle_cli": oracle_cli}[workload](seed)


def build_jobs(workload: str, jobs: list) -> None:
    """Set-up: grids, params, BCs and initial fields, or the CLI configs."""
    if workload == "oracle_cli":
        from heatlab.cli import ExperimentConfig
        for job in jobs:
            spec = job.config_overrides()
            if spec is not None:
                ExperimentConfig.from_file(*spec).build()
        return
    for job in jobs:
        job.build()
