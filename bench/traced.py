"""Traced mirror of a benchmark workload: the per-layer run.

    python3 bench/traced.py --workload session --seed 1234

`bench/run.py --trace 1` starts this in a fresh process.  It builds the
Clifford table cold, then replays the workload's rbsim commands through
the library's public functions with a span around each call, each
command from cold channel caches as in a fresh process.  Traced and
untraced passes alternate, PASSES of each; a layer's time is its fastest
traced pass, and the tracing overhead is the fastest traced minus the
fastest untraced work time.  Spans stay in memory and the first traced
pass's are written once at the end, with self times, to
.bench_out/trace/.  Counts are taken from the sampled sequences, so they
repeat exactly for a seed.  The last stdout line is a JSON record of the
per-layer metrics and the mirrored commands' outcomes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import sys
import time

import numpy as np

import rbsim.cli
from rbsim import config, fit, rb
from rbsim import device as dev
from rbsim import tomography as tomo
from rbsim.cliffords import c1_elements, clifford_table, single_qubit_layer, zx_perm

import checks
from run import OUT, SIMULTANEOUS_SEED, SWEEP_POINTS

CHANNEL_BYTES = 16 * 16 * 8
PASSES = 3
TIMED_LAYERS = (
    "cliffords.table_build", "cliffords.verify", "rb.sample", "rb.propagate",
    "rb.simultaneous", "rb.csv", "device.channel_build", "fit.fit",
    "tomography.simulate", "tomography.invert", "tomography.project",
)
COUNTS = (
    "rb.sample_steps", "rb.families_sampled", "rb.matvecs",
    "rb.channel_lookups", "rb.channels_distinct", "device.layers_distinct",
    "device.param_sets", "fit.calls", "fit.iterations", "fit.unconverged",
    "tomography.project_iterations",
)


class Tracer:
    """Spans (name, start, end, parent index), kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def export(self) -> list[dict]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        origin = self.spans[0][1]
        return [{"name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent, "self_s": end - start - covered[i]}
                for i, (name, start, end, parent) in enumerate(self.spans)]


class Untraced:
    def span(self, name: str):
        return contextlib.nullcontext()


@contextlib.contextmanager
def replay(families):
    """Let rb.run_rb / rb.run_interleaved reuse already sampled families,
    so their time is propagation alone."""
    calls = []

    def sampled(cfg, table, interleaved=None):
        calls.append(interleaved)
        return families

    original = rb.sample_sequences
    rb.sample_sequences = sampled
    try:
        yield
    finally:
        rb.sample_sequences = original
    if len(calls) != 1:
        raise RuntimeError("the campaign no longer samples through "
                           "rb.sample_sequences; update the mirror")


class Mirror:
    """The library calls each rbsim command of a workload makes."""

    def __init__(self, table, seed: int, tracer):
        self.table = table
        self.seed = seed
        self.tr = tracer
        self.profile = config.load_profile(None)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.families: set = set()
        self.largest_cache = 0
        self.attempted = self.failed = 0
        self.pending = []  # checks, run after the timed part
        self.scratch = OUT / "trace" / "scratch"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def cfg(self, **changes) -> rb.RBConfig:
        return dataclasses.replace(self.profile.rb_config(),
                                   **{"seed": self.seed, **changes})

    @contextlib.contextmanager
    def command(self, name: str):
        dev.gate_channel.cache_clear()  # each command is a fresh process
        self.layers: set = set()
        self.attempted += 1
        with self.tr.span(f"rbsim {name}"):
            yield
        self.counts["device.layers_distinct"] += len(self.layers)
        self.counts["device.param_sets"] += len({p for _, p in self.layers})

    def outcome(self, ok: bool, check) -> None:
        if ok:
            self.pending.append(check)
        else:
            self.failed += 1

    def note_layers(self, elements, params) -> None:
        for k in elements:
            self.layers.update((layer, params) for layer in self.table.circuits[k])

    def campaign(self, cfg, noise, built: set, gate=None) -> rb.DecayDataset:
        """Sample, build the channels the sequences use, then propagate."""
        with self.tr.span("rb.sample"):
            families = rb.sample_sequences(cfg, self.table, interleaved=gate)
        used = set()
        per_step = 1 if gate is None else 2
        for family in families:
            longest = family[-1]
            used.update(longest.indices)
            used.update(seq.inversion for seq in family)
            self.families.add((longest.indices, gate))
            steps = len(longest.indices)
            self.counts["rb.families_sampled"] += 1
            self.counts["rb.sample_steps"] += per_step * steps
            self.counts["rb.channel_lookups"] += steps + len(family)
            self.counts["rb.matvecs"] += per_step * steps + len(family)
        new = used - built
        built |= new
        self.counts["rb.channels_distinct"] += len(new)
        self.largest_cache = max(self.largest_cache, len(built))
        self.note_layers(used if gate is None else used | {gate}, noise.params)
        with self.tr.span("device.channel_build"):
            for k in sorted(new):
                noise.clifford_channel(k)
        with replay(families), self.tr.span("rb.propagate"):
            if gate is None:
                return rb.run_rb(cfg, self.table, noise, self.profile.spam)
            return rb.run_interleaved(cfg, self.table, noise, gate,
                                      self.profile.spam)

    def fit(self, ds, b0: float = 0.25) -> fit.FitResult:
        with self.tr.span("fit.fit"):
            result = rb.fit_dataset(ds, b0=b0)
        self.count_fit(result)
        return result

    def count_fit(self, result: fit.FitResult) -> None:
        self.counts["fit.calls"] += 1
        self.counts["fit.iterations"] += result.iterations
        self.counts["fit.unconverged"] += not result.converged

    def csv(self, name: str, datasets) -> None:
        path = self.scratch / name
        with self.tr.span("rb.csv"):
            rb.write_decay_csv(path, datasets)
            rb.read_decay_csv(path)

    # --- the commands --------------------------------------------------------

    def group_verify(self) -> None:
        captured = io.StringIO()
        with self.command("group verify"), self.tr.span("cliffords.verify"), \
                contextlib.redirect_stdout(captured):
            code = rbsim.cli.main(["group", "verify", "--seed", str(self.seed)])
        summary = json.loads(captured.getvalue())
        self.outcome(code == 0, lambda: checks.check_group_verify(summary))

    def rb_standard(self) -> None:
        with self.command("rb standard"):
            noise = rb.DeviceNoiseModel(self.profile.device, self.table)
            ds = self.campaign(self.cfg(), noise, set())
            result = self.fit(ds)
            self.csv("rb_standard.csv", [ds])
        self.outcome(result.converged,
                     lambda: checks.check_twirl_alpha(result.alpha, ds))

    def rb_interleaved(self) -> None:
        with self.command("rb interleaved"):
            cfg, built = self.cfg(), set()
            noise = rb.DeviceNoiseModel(self.profile.device, self.table)
            gate = self.table.index_of(zx_perm())
            datasets = [self.campaign(cfg, noise, built),
                        self.campaign(cfg, noise, built, gate)]
            reference, interleaved = (self.fit(ds) for ds in datasets)
            estimate = fit.interleaved_error(
                reference.alpha, interleaved.alpha,
                alpha_sigma=reference.alpha_sigma,
                alpha_c_sigma=interleaved.alpha_sigma,
            )
            self.csv("rb_interleaved.csv", datasets)
        self.outcome(reference.converged and interleaved.converged,
                     lambda: checks.check_gate_error(estimate.r_c,
                                                     estimate.sigma))

    def rb_simultaneous(self) -> None:
        with self.command("rb simultaneous"):
            params = self.profile.device
            noise = rb.DeviceNoiseModel(params, self.table)
            _, words = c1_elements()
            pairs = list(itertools.product(range(24), repeat=2))
            self.layers.update(
                (layer, params) for i, j in pairs
                if (layer := single_qubit_layer(words[i], words[j])) is not None
            )
            with self.tr.span("device.channel_build"):
                for i, j in pairs:
                    noise.pair_channel(i, j)
            with self.tr.span("rb.simultaneous"):
                result = rb.run_simultaneous(self.cfg(seed=SIMULTANEOUS_SEED),
                                             noise, self.profile.spam)
            for f in result.fits.values():
                self.count_fit(f)
            self.csv("rb_simultaneous.csv", list(result.datasets.values()))
            delta, sigma = result.delta_alpha()
        self.outcome(
            all(f.converged for f in result.fits.values()),
            lambda: checks.check_delta_alpha(
                {"delta_alpha": delta, "delta_alpha_sigma": sigma}),
        )

    def qpt(self) -> None:
        with self.command("qpt"):
            index = self.table.index_of(zx_perm())
            noise = rb.DeviceNoiseModel(self.profile.device, self.table)
            self.note_layers([index], noise.params)
            with self.tr.span("device.channel_build"):
                channel = noise.clifford_channel(index)
            with self.tr.span("tomography.simulate"):
                data = tomo.simulate_qpt(channel, spam=self.profile.spam,
                                         shots=1000, seed=self.seed)
            with self.tr.span("tomography.invert"):
                raw = tomo.linear_inversion_ptm(data)
            with self.tr.span("tomography.project"):
                projection = tomo.project_cptp(raw)
            self.counts["tomography.project_iterations"] += projection.iterations
            with self.tr.span("tomography.csv"):
                tomo.write_qpt_csv(self.scratch / "qpt_probabilities.csv", data)
        self.outcome(projection.converged,
                     lambda: checks.check_cptp(projection.ptm))

    def sweep_tau2(self) -> None:
        with self.command("sweep tau2"):
            p, cfg = self.profile, self.cfg()
            rows, ok = [], True
            for tau2 in np.linspace(p.tau2_start, p.tau2_stop, SWEEP_POINTS):
                params = p.device.with_calibration(max(float(tau2), 1e-9))
                noise = rb.DeviceNoiseModel(params, self.table)
                result = self.fit(self.campaign(cfg, noise, set()))
                limits = []
                for t1_limited in (False, True):
                    clean = rb.DeviceNoiseModel(
                        rb.decoherence_only_params(params, t1_limited),
                        self.table)
                    limits.append(self.fit(self.campaign(
                        dataclasses.replace(cfg, shots=None), clean, set())))
                ok &= result.converged and all(f.converged for f in limits)
                rows.append({
                    "tau2_ns": float(tau2),
                    "r": fit.error_per_clifford(result.alpha),
                    "r_sigma": fit.error_per_clifford_sigma(result.alpha_sigma),
                    "r_limit_t2": fit.error_per_clifford(limits[0].alpha),
                    "r_limit_2t1": fit.error_per_clifford(limits[1].alpha),
                })
        self.outcome(ok, lambda: checks.check_sweep_rows(rows))


MIRRORS = {
    "sweep-tau2": (Mirror.sweep_tau2,),
    "session": (Mirror.group_verify, Mirror.rb_standard, Mirror.rb_interleaved,
                Mirror.rb_simultaneous, Mirror.qpt),
}


def run_mirror(workload: str, table, seed: int, tracer) -> tuple[Mirror, float]:
    mirror = Mirror(table, seed, tracer)
    start = time.perf_counter()
    for command in MIRRORS[workload]:
        command(mirror)
    return mirror, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIRRORS))
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args(argv)

    tracer = Tracer()
    with tracer.span("cliffords.table_build"):
        table = clifford_table()
    runs = {True: [], False: []}  # traced?: [(mirror, work seconds)]
    for _ in range(PASSES):
        runs[True].append(run_mirror(args.workload, table, args.seed,
                                     tracer if not runs[True] else Tracer()))
        runs[False].append(run_mirror(args.workload, table, args.seed,
                                      Untraced()))
    traced = runs[True][0][0]

    problems = []
    for check in traced.pending:
        try:
            check()
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    if any(m.counts != traced.counts for m, _ in runs[True] + runs[False]):
        problems.append("counts differ between passes")
    path = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.export(), indent=1) + "\n")

    metrics = {f"{name}_s": min(m.tr.total(name) for m, _ in runs[True])
               for name in TIMED_LAYERS}
    metrics["cliffords.table_build_s"] = tracer.total("cliffords.table_build")
    metrics.update(traced.counts)
    metrics["rb.families_distinct"] = len(traced.families)
    metrics["rb.channel_mb"] = traced.largest_cache * CHANNEL_BYTES / 2**20
    metrics["trace.spans"] = len(runs[True][-1][0].tr.spans)
    metrics["trace.overhead_s"] = (min(s for _, s in runs[True])
                                   - min(s for _, s in runs[False]))
    print(json.dumps({
        "correct": not problems,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": metrics,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
