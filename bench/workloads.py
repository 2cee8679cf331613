"""The benchmark workloads: what one round calls, and how its outputs are checked.

A round is a fixed list of operations (a figure grid point, an MC estimate,
an exceedance estimate or a dynamic-range search). ``run_round`` only calls
the public ``aoci`` API and times the calls; ``collect`` turns the results
into plain data outside the timed region; ``check`` judges that data against
``reference`` or against a property the method must have and returns the
operations that failed. Every round of a run repeats the same operations
with the same seeds, so later rounds must reproduce the first bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

# Family-wise false-alarm rate of the statistical checks of one run; each
# check gets ALPHA / (number of checks) (Bonferroni).
ALPHA = 1e-6


def derive_seed(seed: int, label: str) -> int:
    """63-bit MC seed for one part of a workload, from the workload seed."""
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _raw_with(doc: dict, assignments: dict) -> dict:
    """Copy of a raw config document with dotted-path fields replaced."""
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    for path, value in assignments.items():
        section, _, leaf = path.rpartition(".")
        out[section][leaf] = value
    return out


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Round:
    """What one round produced: per-part wall times, outputs, raised parts."""

    def __init__(self, dir: Path | None = None):
        self.dir = dir  # where the round's files go, if it writes any
        self.times: dict[str, float] = {}
        self.results: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.outputs: dict[str, object] = {}

    def call(self, part: str, fn, *args, **kwargs) -> None:
        start = time.perf_counter()
        try:
            self.results[part] = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is a failed operation
            self.errors[part] = f"{type(exc).__name__}: {exc}"
        self.times[part] = time.perf_counter() - start

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


class Workload:
    """Base: subclasses define the parts, their operations and their checks."""

    name = ""
    # part -> number of operations it holds
    parts: dict[str, int] = {}

    def __init__(self, aoci, seed: int, scratch: Path):
        self.aoci = aoci
        self.seed = seed
        self.scratch = scratch
        # (part, operation index) that fail by a known, seed-independent fault
        self.known: set[tuple[str, int]] = set()
        self.rng = np.random.default_rng(derive_seed(seed, "checks"))
        self.setup()

    @property
    def ops_per_round(self) -> int:
        return sum(self.parts.values())

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def collect(self, rnd: Round) -> None:
        """Fill ``rnd.outputs`` (part -> comparable data); runs untimed."""
        raise NotImplementedError

    def check(self, rnd: Round) -> tuple[dict[str, set], list[str]]:
        """Failed operation indices per part, and a message for each problem."""
        raise NotImplementedError

    def info(self, rnd: Round) -> dict[str, float]:
        """Workload-specific throughput figures, for the human-readable line."""
        return {}

    def judge(self, rounds: list[Round]) -> tuple[int, list[str], bool]:
        """Failed operations over all rounds, the problems found, and whether
        every failure is a known fault (the run is then still correct)."""
        for rnd in rounds:
            self.collect(rnd)
        failed, problems = self.check(rounds[0])
        for part, why in rounds[0].errors.items():
            failed[part] = set(range(self.parts[part]))
            problems.append(f"{part} raised {why}")
        correct = all((part, i) in self.known for part, ops in failed.items() for i in ops)
        total = sum(len(v) for v in failed.values())
        for i, rnd in enumerate(rounds[1:], start=1):
            bad = dict(failed)
            for part in self.parts:
                if rnd.errors.get(part) != rounds[0].errors.get(part) or (
                    rnd.outputs.get(part) != rounds[0].outputs.get(part)
                ):
                    bad[part] = set(range(self.parts[part]))
                    problems.append(f"round {i} of {part} differs from round 0")
                    correct = False
            total += sum(len(v) for v in bad.values())
        return total, problems, correct


# ---------------------------------------------------------------------------
# flux_figures
# ---------------------------------------------------------------------------


class FluxFigures(Workload):
    """Figures 3-6 at their bundled presets and grids (CSV + SVG)."""

    name = "flux_figures"
    parts = {"fig3": 143, "fig4": 195, "fig5": 92, "fig6": 68}
    QUADRATURE_ROWS_CHECKED = 2
    # Known fault, counted in ``failed`` without making the run incorrect:
    # near its convergence boundary (fig5, sigma_s 0.66-0.8 mm) the F4 series
    # returns values up to 1e-5 off the reference while its err_bound claims
    # about 1e-11. These rows do not depend on the seed.
    SERIES_FAULT = "fig5 series row off the reference by more than 1e-6"

    def setup(self) -> None:
        load = self.aoci.figures.load_preset
        self.cfgs = {part: load(part) for part in self.parts}

    def run_round(self, index: int) -> Round:
        rnd = Round(self.scratch / f"{self.name}-round{index}")
        for part, cfg in self.cfgs.items():
            rnd.call(part, self.aoci.figures.run_figure, int(part[3:]), rnd.dir, cfg=cfg)
        return rnd

    def collect(self, rnd: Round) -> None:
        for part in self.parts:
            if part in rnd.errors:
                continue
            csv_path = rnd.dir / f"{part}.csv"
            trends = tuple((c.name, c.passed, c.detail) for c in rnd.results[part])
            rnd.outputs[part] = (
                csv_path.read_bytes(), (rnd.dir / f"{part}.svg").read_bytes(), trends,
                _read_csv(csv_path),
            )
        shutil.rmtree(rnd.dir, ignore_errors=True)

    def check(self, rnd: Round):
        failed: dict[str, set] = defaultdict(set)
        problems: list[str] = []
        candidates = {"series": [], "quadrature": []}
        for part, expected in self.parts.items():
            if part in rnd.errors:
                continue
            _, _, trends, rows = rnd.outputs[part]
            if len(rows) != expected:
                failed[part] = set(range(expected))
                problems.append(f"{part}: {len(rows)} rows, expected {expected}")
                continue
            for name, passed, detail in trends:
                if not passed:
                    failed[part] = set(range(expected))
                    problems.append(f"{part}: trend check failed: {name} ({detail})")
            for i, row in enumerate(rows):
                if row["error"] or not row["value"] or row["method"] not in candidates:
                    failed[part].add(i)
                    problems.append(f"{part} row {i}: {row['error'] or 'no value'}")
                else:
                    candidates[row["method"]].append((part, i, row))
            if part == "fig4":
                self._check_linear(rows, failed[part], problems)

        # Every series row is checked: the series route is where a known fault
        # sits (see SERIES_FAULT). Quadrature rows cost seconds of reference
        # time each, so a few are drawn from the seed.
        pool = candidates["quadrature"]
        count = min(self.QUADRATURE_ROWS_CHECKED, len(pool))
        picks = candidates["series"] + [
            pool[j] for j in self.rng.choice(len(pool), count, replace=False)]
        for part, i, row in picks:
            doc = _raw_with(self.cfgs[part].to_dict(), {
                row["axis1_path"]: float(row["axis1_value"]),
                row["axis2_path"]: float(row["axis2_value"]),
            })
            want = ref.mean_flux(ref.Link(doc))
            got = float(row["value"])
            if not abs(got - want) <= 1e-6 * want:
                failed[part].add(i)
                known = part == "fig5" and row["method"] == "series"
                if known:
                    self.known.add((part, i))
                problems.append(f"{part} row {i} ({row['method']}): {got!r} vs reference {want!r}"
                                f", relative error {abs(got - want) / want:.3g}"
                                + (f" [known fault: {self.SERIES_FAULT}]" if known else ""))
        return failed, problems

    @staticmethod
    def _check_linear(rows, failed: set, problems: list[str]) -> None:
        """Flux is linear in power at each thickness (axis1 delta, axis2 power)."""
        by_delta: dict[str, list] = defaultdict(list)
        for i, row in enumerate(rows):
            if row["value"]:
                by_delta[row["axis1_value"]].append(
                    (i, float(row["value"]) / float(row["axis2_value"])))
        for delta, per_watt in by_delta.items():
            base = per_watt[0][1]
            for i, v in per_watt:
                if not abs(v / base - 1.0) <= 1e-9:
                    failed.add(i)
                    problems.append(f"fig4 row {i}: not linear in power at delta={delta}")

    def info(self, rnd: Round) -> dict[str, float]:
        return {"flux_points_per_s": self.ops_per_round / rnd.seconds}


# ---------------------------------------------------------------------------
# mc_flux
# ---------------------------------------------------------------------------


class McFlux(Workload):
    """Monte Carlo flux at a large n, default preset and a wide-jitter variant."""

    name = "mc_flux"
    parts = {"default": 1, "wide_jitter": 1}
    SAMPLES = 1 << 18

    def setup(self) -> None:
        base = self.aoci.figures.load_preset("default")
        self.cfgs = {"default": base, "wide_jitter": base.with_value("beam.sigma_s_mm", 1.0)}
        self.seeds = {part: derive_seed(self.seed, part) for part in self.parts}

    def run_round(self, index: int) -> Round:
        rnd = Round()
        for part in self.parts:
            rnd.call(part, self.aoci.photometry.mean_flux_mc, self.cfgs[part],
                     n=self.SAMPLES, seed=self.seeds[part])
        return rnd

    def collect(self, rnd: Round) -> None:
        for part, est in rnd.results.items():
            rnd.outputs[part] = (est.value, est.err_bound, est.method, est.n_samples, est.seed)

    def check(self, rnd: Round):
        failed: dict[str, set] = defaultdict(set)
        problems: list[str] = []
        z = ref.normal_quantile(ALPHA / len(self.parts))
        for part, (value, err, method, n, seed) in rnd.outputs.items():
            want = ref.mean_flux(ref.Link(self.cfgs[part].to_dict()))
            ok = method == "monte_carlo" and n == self.SAMPLES and seed == self.seeds[part]
            if not (ok and err > 0.0 and abs(value - want) <= z * err):
                failed[part].add(0)
                problems.append(
                    f"{part}: MC {value!r} +- {err!r} vs reference {want!r} (z = {z:.2f})")
        return failed, problems

    def info(self, rnd: Round) -> dict[str, float]:
        return {"mc_samples_per_s": self.SAMPLES * len(self.parts) / rnd.seconds}


# ---------------------------------------------------------------------------
# kpi_safety
# ---------------------------------------------------------------------------


class KpiSafety(Workload):
    """Figure 8, the dynamic-range search, and the shot-noise hearing estimate."""

    name = "kpi_safety"
    parts = {"fig8": 136, "dynamic_range": 1, "shot_noise": 1}
    FIG8_SAMPLES = 10_000
    RANGE_SAMPLES = 10_000
    SHOT_SAMPLES = 30_000
    ROWS_CHECKED = 12
    HEARING_TARGET = 0.9

    def setup(self) -> None:
        load = self.aoci.figures.load_preset
        base = load("default")
        self.fig8 = load("fig8")
        self.range_cfg = base.with_value("beam.sigma_s_mm", 0.02)
        self.shot_cfg = base
        self.seeds = {part: derive_seed(self.seed, part) for part in self.parts}

    def run_round(self, index: int) -> Round:
        rnd = Round(self.scratch / f"{self.name}-round{index}")
        if "fig8" in self.parts:
            rnd.call("fig8", self.aoci.figures.run_figure, 8, rnd.dir, cfg=self.fig8,
                     mc_n=self.FIG8_SAMPLES, seed=self.seeds["fig8"])
        rnd.call("dynamic_range", self.aoci.kpi.safety_check, self.range_cfg,
                 hearing_target=self.HEARING_TARGET, n=self.RANGE_SAMPLES,
                 seed=self.seeds["dynamic_range"])
        rnd.call("shot_noise", self.aoci.kpi.p_hearing, self.shot_cfg, n=self.SHOT_SAMPLES,
                 seed=self.seeds["shot_noise"], signal_shot_noise=True)
        return rnd

    def collect(self, rnd: Round) -> None:
        if "fig8" in rnd.results:
            trends = tuple((c.name, c.passed, c.detail) for c in rnd.results["fig8"])
            csv_path = rnd.dir / "fig8.csv"
            rnd.outputs["fig8"] = (csv_path.read_bytes(), trends, _read_csv(csv_path))
        shutil.rmtree(rnd.dir, ignore_errors=True)
        if "dynamic_range" in rnd.results:
            rnd.outputs["dynamic_range"] = rnd.results["dynamic_range"]
        if "shot_noise" in rnd.results:
            rnd.outputs["shot_noise"] = tuple(rnd.results["shot_noise"])

    def check(self, rnd: Round):
        failed: dict[str, set] = defaultdict(set)
        problems: list[str] = []
        checks = self.ROWS_CHECKED + 2  # rows, shot noise, order statistic
        alpha = ALPHA / checks
        if "fig8" in rnd.outputs:
            self._check_fig8(rnd.outputs["fig8"], alpha, failed["fig8"], problems)
        if "dynamic_range" in rnd.outputs:
            range_problems = self._check_range(rnd.outputs["dynamic_range"], alpha)
            if range_problems:
                failed["dynamic_range"].add(0)
                problems += range_problems
        if "shot_noise" in rnd.outputs:
            value, _, _, n, seed = rnd.outputs["shot_noise"]
            p_lo, p_hi = ref.shot_noise_interval(ref.Link(self.shot_cfg.to_dict()))
            hits = round(value * n)
            if not (n == self.SHOT_SAMPLES and seed == self.seeds["shot_noise"]
                    and ref.binomial_consistent(hits, n, p_lo, p_hi, alpha)):
                failed["shot_noise"].add(0)
                problems.append(f"shot_noise: {value!r} outside binomial range of "
                                f"[{p_lo!r}, {p_hi!r}]")
        return failed, problems

    def _check_fig8(self, output, alpha, failed: set, problems: list[str]) -> None:
        _, trends, rows = output
        expected = self.parts["fig8"]
        if len(rows) != expected:
            failed.update(range(expected))
            problems.append(f"fig8: {len(rows)} rows, expected {expected}")
            return
        for name, passed, detail in trends:
            if not passed:
                failed.update(range(expected))
                problems.append(f"fig8: trend check failed: {name} ({detail})")
        # (metric, delta) -> [(power, row index, p)]
        curves: dict[tuple, list] = defaultdict(list)
        for i, row in enumerate(rows):
            value = float(row["value"]) if row["value"] else math.nan
            if row["error"] or not (0.0 <= value <= 1.0) or (
                row["n_samples"] != str(self.FIG8_SAMPLES)
            ):
                failed.add(i)
                problems.append(f"fig8 row {i}: {row['error'] or 'bad value'}")
                continue
            curves[(row["metric"], row["axis2_value"])].append(
                (float(row["axis1_value"]), i, value))
        for (metric, delta), points in curves.items():
            points.sort()
            if metric == "p_hearing":
                for (_, i, a), (_, j, b) in zip(points, points[1:]):
                    if b < a:
                        failed.update((i, j))
                        problems.append(f"fig8: p_hearing decreases in power at delta={delta}")
                damage = {p: (j, v) for p, j, v in curves.get(("p_damage", delta), [])}
                for power, i, p_h in points:
                    j, p_d = damage.get(power, (None, math.nan))
                    if not p_d <= p_h:
                        failed.update({i} if j is None else {i, j})
                        problems.append(f"fig8: p_damage > p_hearing at {power} mW, delta={delta}")
        base = self.fig8.to_dict()
        for i in self.rng.choice(len(rows), self.ROWS_CHECKED, replace=False):
            row = rows[i]
            if i in failed:
                continue
            link = ref.Link(_raw_with(base, {
                row["axis1_path"]: float(row["axis1_value"]),
                row["axis2_path"]: float(row["axis2_value"]),
            }))
            want = (ref.hearing_probability(link) if row["metric"] == "p_hearing"
                    else ref.damage_probability(link))
            n = int(row["n_samples"])
            hits = round(float(row["value"]) * n)
            if not ref.binomial_consistent(hits, n, want, want, alpha):
                failed.add(int(i))
                problems.append(f"fig8 row {i} ({row['metric']}): {row['value']} vs "
                                f"reference {want!r}")

    def _check_range(self, result, alpha) -> list[str]:
        _, _, _, _, dynamic_range = result
        link = ref.Link(self.range_cfg.to_dict())
        if dynamic_range is None:
            return ["dynamic_range: empty, reference range is not"]
        low, high = dynamic_range
        problems = []
        cap = link.exposure_cap()
        if not abs(high - cap) <= 1e-12 * cap:
            problems.append(f"dynamic_range: upper edge {high!r} != exposure cap {cap!r}")
        # The search returns the power at which the ceil(0.9 n)-th smallest
        # displacement just reaches threshold; while Phi decreases in r that
        # displacement is an order statistic of the Rayleigh law.
        q_lo, q_hi = ref.order_statistic_range(self.RANGE_SAMPLES, self.HEARING_TARGET, alpha)
        r_lo = ref.rayleigh_quantile(link.sigma, q_lo)
        r_hi = ref.rayleigh_quantile(link.sigma, q_hi)
        rs = np.linspace(0.0, r_hi, 201)
        phis = np.array([link.phi(float(r), power=1.0) for r in rs])
        if not np.all(np.diff(phis) < 0.0):
            problems.append("dynamic_range: Phi is not decreasing up to the 0.9 quantile")
        per_watt = lambda r: link.phi(r, power=1.0) * link.window_gain
        x_lo = link.y_th / per_watt(r_lo) * (1.0 - 1e-9) - cap * 2.0**-38
        x_hi = link.y_th / per_watt(r_hi) * (1.0 + 1e-9) + cap * 2.0**-38
        if not x_lo <= low <= x_hi:
            problems.append(f"dynamic_range: lower edge {low!r} outside [{x_lo!r}, {x_hi!r}]")
        return problems

    def info(self, rnd: Round) -> dict[str, float]:
        figures = {"dynamic_range_s": rnd.times["dynamic_range"],
                   "shot_noise_samples_per_s": self.SHOT_SAMPLES / rnd.times["shot_noise"]}
        if "fig8" in rnd.times:
            samples = self.parts["fig8"] * self.FIG8_SAMPLES
            figures["kpi_samples_per_s"] = samples / rnd.times["fig8"]
        return figures


WORKLOADS = {cls.name: cls for cls in (FluxFigures, McFlux, KpiSafety)}
