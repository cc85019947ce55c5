"""The benchmark's workloads: their inputs, their timed operations and their checks.

Every workload runs the same commands on inputs of the same shape:
``recon-net fit``, ``sample``, ``spectra --rescale``, ``validate`` and
``scan`` through ``reconnet.cli.main``. A workload's own commands are large
and make up its ``wall_s``; the others run as small probes, so that every
end-to-end metric is measured on every workload while a change to a layer
the workload does not own leaves its ``wall_s`` alone. ``scan-n200`` also
fits the dcm, grm and rcm degree models to one sampled network. Why each
workload was chosen, and which layers it loads and bypasses, is in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import checks

YEAR = 2001
FITNESS_DIST = "lognormal(0,1)"
FIT_DENSITY, FIT_RECIPROCITY = 0.2, 0.35
THREADS = 2
DEGREE_KINDS = ("dcm", "grm", "rcm")
# Within a pass an operation repeats until it has taken MIN_OP_SECONDS, so
# that sub-second probes are medians of several runs rather than one.
MIN_OP_SECONDS = 0.3
MAX_REPEATS = 20


@dataclass(frozen=True)
class Synth:
    """Arguments of one ``recon-net synth`` call."""

    nodes: int
    days: int
    density: float
    reciprocity: float

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["synth", "--nodes", str(self.nodes), "--fitness-dist", FITNESS_DIST,
                "--model", "fgrm", "--density", str(self.density),
                "--reciprocity", str(self.reciprocity), "--days", str(self.days),
                "--year", str(YEAR), "--seed", str(seed), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    samples: int           # sample --samples
    written: int           # sample --write-networks, the networks spectra reads
    validate_delta_t: int  # validate --delta-t, window 0
    scan_delta_t: str      # scan --delta-t
    own: tuple[str, ...]   # the commands wall_s counts; the others are probes
    degree_fits: bool      # fit dcm, grm and rcm to the degrees of a sampled network


# fitness and transaction stream that fit, sample, ..., scan read
STREAM_N200 = Synth(nodes=200, days=250, density=0.02, reciprocity=0.2)
# the network whose degrees the degree models match: the one day of
# transactions this draws from the fgrm model synth fits at the design point
DEGREE_N100 = Synth(nodes=100, days=1, density=FIT_DENSITY, reciprocity=FIT_RECIPROCITY)
CHAIN = ("fit", "sample", "spectra", "validate")

WORKLOADS = {
    "chain-n200": Workload(samples=60, written=30, validate_delta_t=20,
                           scan_delta_t="25,50,125,250", own=CHAIN, degree_fits=False),
    "scan-n200": Workload(samples=20, written=4, validate_delta_t=1,
                          scan_delta_t="6,12,25,50,125,250", own=("scan",), degree_fits=True),
}


def make_inputs(workload: Workload, seed: int, inputs: Path) -> None:
    """Generate the workload's inputs with ``recon-net synth``."""
    from reconnet import cli

    runs = [("stream", STREAM_N200)] + ([("degree", DEGREE_N100)] if workload.degree_fits else [])
    for sub, synth in runs:
        rc = cli.main(synth.argv(seed, inputs / sub))
        if rc != 0:
            raise RuntimeError(f"recon-net synth for the {sub} inputs exited with {rc}")


def degree_targets(inputs: Path) -> dict:
    """Targets of the degree fits: the degrees of the sampled N=100 network."""
    degree = inputs / "degree"
    _, rows = checks.read_rows(degree / "fitness.csv")
    # every node of the model, including those without a link that day
    stream = checks.Stream(degree / "transactions.csv", YEAR, labels=[r[0] for r in rows])
    return checks.degree_targets(stream.adjacency(0, 1))


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None  # why the operation failed: it raised, or an output is wrong
    wrong: bool = False       # an output it produced failed its check


class Iteration:
    """One pass over a workload's operations, timed one by one."""

    def __init__(self, workload: Workload, seed: int, inputs: Path, out: Path,
                 min_seconds: float, tracer=None):
        self.w = workload
        self.min_seconds = min_seconds
        self.seed = seed
        self.inputs = inputs
        self.out = out
        self.tracer = tracer
        self.ops: list[Op] = []
        self.degree_models: list[tuple[int, str, dict, object]] = []

    def _op(self, name: str, call, once: bool = False):
        """Time ``call``; repeat it until it has taken ``min_seconds`` in all, unless ``once``.

        Returns the result of the last call, or None if it raised.
        """
        total, reps = 0.0, 0
        while True:
            result, error = None, None
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a crash of one operation must not end the run
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            self.ops.append(Op(name, seconds, error))
            total, reps = total + seconds, reps + 1
            if once or error or total >= self.min_seconds or reps >= MAX_REPEATS:
                return result

    def _cli(self, command: str, *args: str) -> None:
        from reconnet import cli

        argv = [command, *args, "--out", str(self.out / command)]

        def call():
            with self.tracer.span(f"cli.{command}") if self.tracer else nullcontext():
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")

        self._op(command, call)

    def run(self, degree_targets: dict | None) -> None:
        """Run every command, then the degree fits if ``degree_targets`` is given."""
        from reconnet import estimation

        w, out, stream = self.w, self.out, self.inputs / "stream"
        self._cli("fit", "--fitness", str(stream / "fitness.csv"), "--model", "fgrm",
                  "--density", str(FIT_DENSITY), "--reciprocity", str(FIT_RECIPROCITY))
        model = str(out / "fit" / "fitted.json")
        self._cli("sample", "--model-file", model, "--samples", str(w.samples),
                  "--seed", str(self.seed), "--write-networks", str(w.written),
                  "--threads", str(THREADS))
        self._cli("spectra", "--networks", str(out / "sample" / "samples"), "--rescale",
                  "--threads", str(THREADS))
        self._cli("validate", "--model-file", model,
                  "--transactions", str(stream / "transactions.csv"), "--year", str(YEAR),
                  "--delta-t", str(w.validate_delta_t), "--window", "0")
        self._cli("scan", "--transactions", str(stream / "transactions.csv"),
                  "--year", str(YEAR), "--delta-t", w.scan_delta_t)
        for kind in DEGREE_KINDS if degree_targets else ():
            targets = degree_targets[kind]
            # the program's default SolverConfig; a fit that does not converge fails
            fitted = self._op(kind, lambda: estimation.fit_degree_model(kind, **targets),
                              once=True)
            if fitted is not None:
                self.degree_models.append((len(self.ops) - 1, kind, targets, fitted))

    def check(self, stream: "checks.Stream", reference: dict | None) -> tuple[dict, int]:
        """Check this pass's outputs and mark each op whose outputs are wrong as failed.

        The first pass (``reference`` None) is checked in full. Later passes
        must reproduce its artifacts byte for byte, as the CLI promises for a
        fixed seed. Returns the artifact hashes and the windows the scan attempted.
        """
        w, out = self.w, self.out
        windows = 0
        if reference is None:
            def scan_check():
                nonlocal windows
                errors, windows = checks.check_scan(
                    stream, out / "scan", [int(x) for x in w.scan_delta_t.split(",")])
                return errors

            cli_checks = {
                "fit": lambda: checks.check_fit(out / "fit", FIT_DENSITY, FIT_RECIPROCITY),
                "sample": lambda: checks.check_sample(out / "fit", out / "sample",
                                                      w.samples, w.written),
                "spectra": lambda: checks.check_spectra(out / "spectra", w.written,
                                                        STREAM_N200.nodes),
                "validate": lambda: checks.check_validate(out / "validate"),
                "scan": scan_check,
            }
        hashes = checks.artifact_hashes(out)
        for op in self.ops:
            if op.name in DEGREE_KINDS:
                continue
            if reference is None:
                self._fail_on(op, cli_checks[op.name])
            elif {k: v for k, v in hashes.items() if k.startswith(op.name + "/")} != \
                    {k: v for k, v in reference.items() if k.startswith(op.name + "/")}:
                op.wrong = True
                op.error = op.error or f"{op.name}: artifacts differ from the first pass"
        for index, kind, targets, fitted in self.degree_models:
            self._fail_on(self.ops[index],
                          lambda: checks.check_degree_fit(kind, fitted.params, targets))
        return hashes, windows

    @staticmethod
    def _fail_on(op: Op, check) -> None:
        try:
            errors = check()
        except Exception as exc:  # a missing or unreadable output fails the check
            errors = [f"{op.name}: cannot check outputs: {type(exc).__name__}: {exc}"]
        if errors:
            op.wrong = True
            op.error = op.error or "; ".join(errors)


def run_metrics(passes: list[Iteration], windows: int) -> dict[str, float]:
    """End-to-end metrics of a run: each command at the median of all its timings."""
    times: dict[str, list[float]] = {}
    for it in passes:
        for op in it.ops:
            times.setdefault(op.name, []).append(op.seconds)
    seconds = {name: statistics.median(v) for name, v in times.items()}
    w = passes[0].w
    return {
        "wall_s": sum(seconds[name] for name in w.own),
        "samples_per_s": w.samples / seconds["sample"],
        "spectra_s": seconds["spectra"],
        "validate_s": seconds["validate"],
        "windows_per_s": windows / seconds["scan"],
    }
