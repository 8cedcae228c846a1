"""INI-backed run profiles for the command-line entry points.

A profile collects everything a campaign needs: device parameters,
state-preparation and readout error, sequence-length schedule, shot
budget, and sweep grids.  Every key is optional; the defaults reproduce
the stock device.  Unknown sections or keys raise ConfigError so typos
fail loudly instead of silently benchmarking the wrong thing.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import fit, rb


class ConfigError(ValueError):
    """Malformed configuration file or option value."""


_RUN_KEYS = {"seed", "out_dir"}
_SPAM_KEYS = {"thermal_pop_1", "thermal_pop_2", "thermal", "misassignment"}
_RB_KEYS = {
    "lengths", "sequences", "shots", "noise_model",
    "clifford_depol", "gate_depol", "interleaved_gate",
}
_QPT_KEYS = {"shots", "target", "spam_aware"}
_SWEEP_KEYS = {
    "rabi_start", "rabi_stop", "rabi_points",
    "tau2_start", "tau2_stop", "tau2_points",
}
_DEVICE_KEYS = {f.name for f in dataclasses.fields(dev.DeviceParams)}

NOISE_MODELS = ("device", "depolarizing")
GATE_NAMES = ("zx", "cnot", "iswap", "swap")


@dataclass
class RunProfile:
    seed: int = 1234
    out_dir: str | None = None
    device: dev.DeviceParams = field(default_factory=dev.DeviceParams)
    spam: dev.SpamModel = field(default_factory=dev.SpamModel.ideal)
    lengths: tuple[int, ...] = rb.DEFAULT_LENGTHS
    sequences: int = 40
    shots: int | None = 1000
    noise_model: str = "device"
    clifford_depol: float = 0.98
    gate_depol: float = 0.99
    interleaved_gate: str = "zx"
    qpt_shots: int | None = None
    qpt_target: str = "zx"
    qpt_spam_aware: bool = False
    rabi_start: float = 0.0
    rabi_stop: float = 400.0
    rabi_points: int = 161
    tau2_start: float = 100.0
    tau2_stop: float = 300.0
    tau2_points: int = 9

    def rb_config(self) -> rb.RBConfig:
        return rb.RBConfig(
            lengths=self.lengths,
            n_sequences=self.sequences,
            shots=self.shots,
            seed=self.seed,
        )

    def noise(self, table) -> object:
        if self.noise_model == "device":
            return rb.DeviceNoiseModel(self.device, table)
        return rb.InjectedNoiseModel(
            table,
            rb.depolarizing_ptm(self.clifford_depol),
            gate_noise=rb.depolarizing_ptm(self.gate_depol),
        )


def parse_lengths(text: str) -> tuple[int, ...]:
    """Comma-separated lengths; a-b tokens expand to inclusive ranges."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token:
            lo, _, hi = token.partition("-")
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError as exc:
                raise ConfigError(f"bad length range {token!r}") from exc
        else:
            try:
                out.append(int(token))
            except ValueError as exc:
                raise ConfigError(f"bad length {token!r}") from exc
    if not out:
        raise ConfigError("empty lengths list")
    return tuple(out)


def _check_keys(section, allowed, name):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
        )


def _get_shots(section, key, current):
    raw = section.get(key)
    if raw is None:
        return current
    if raw.strip().lower() == "exact":
        return None
    return int(raw)


def load_profile(path: str | None = None) -> RunProfile:
    """Profile from an INI file; None gives the defaults."""
    profile = RunProfile()
    if path is None:
        return profile
    cp = configparser.ConfigParser()
    try:
        with open(path) as handle:
            cp.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    known = {"run", "device", "spam", "rb", "qpt", "sweep"}
    unknown = set(cp.sections()) - known
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")

    try:
        if cp.has_section("run"):
            sec = cp["run"]
            _check_keys(sec, _RUN_KEYS, "run")
            profile.seed = sec.getint("seed", profile.seed)
            profile.out_dir = sec.get("out_dir", profile.out_dir)

        if cp.has_section("device"):
            sec = cp["device"]
            _check_keys(sec, _DEVICE_KEYS, "device")
            overrides = {key: float(sec[key]) for key in sec}
            profile.device = dataclasses.replace(profile.device, **overrides)

        if cp.has_section("spam"):
            sec = cp["spam"]
            _check_keys(sec, _SPAM_KEYS, "spam")
            thermal = sec.getfloat("thermal", 0.0)
            pop1 = sec.getfloat("thermal_pop_1", thermal)
            pop2 = sec.getfloat("thermal_pop_2", thermal)
            e = sec.getfloat("misassignment", 0.0)
            c1 = np.array([[1.0 - e, e], [e, 1.0 - e]])
            profile.spam = dev.SpamModel(pop1, pop2, np.kron(c1, c1))

        if cp.has_section("rb"):
            sec = cp["rb"]
            _check_keys(sec, _RB_KEYS, "rb")
            if "lengths" in sec:
                profile.lengths = parse_lengths(sec["lengths"])
            profile.sequences = sec.getint("sequences", profile.sequences)
            profile.shots = _get_shots(sec, "shots", profile.shots)
            profile.noise_model = sec.get("noise_model", profile.noise_model)
            profile.clifford_depol = sec.getfloat(
                "clifford_depol", profile.clifford_depol
            )
            profile.gate_depol = sec.getfloat("gate_depol", profile.gate_depol)
            profile.interleaved_gate = sec.get(
                "interleaved_gate", profile.interleaved_gate
            ).lower()

        if cp.has_section("qpt"):
            sec = cp["qpt"]
            _check_keys(sec, _QPT_KEYS, "qpt")
            profile.qpt_shots = _get_shots(sec, "shots", profile.qpt_shots)
            profile.qpt_target = sec.get("target", profile.qpt_target).lower()
            profile.qpt_spam_aware = sec.getboolean(
                "spam_aware", profile.qpt_spam_aware
            )

        if cp.has_section("sweep"):
            sec = cp["sweep"]
            _check_keys(sec, _SWEEP_KEYS, "sweep")
            profile.rabi_start = sec.getfloat("rabi_start", profile.rabi_start)
            profile.rabi_stop = sec.getfloat("rabi_stop", profile.rabi_stop)
            profile.rabi_points = sec.getint("rabi_points",
                                             profile.rabi_points)
            profile.tau2_start = sec.getfloat("tau2_start", profile.tau2_start)
            profile.tau2_stop = sec.getfloat("tau2_stop", profile.tau2_stop)
            profile.tau2_points = sec.getint("tau2_points",
                                             profile.tau2_points)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc

    validate(profile)
    return profile


def validate(profile: RunProfile) -> None:
    """Raise ConfigError naming the first field with an invalid value."""
    for name in ("rabi_start", "rabi_stop", "tau2_start", "tau2_stop"):
        value = getattr(profile, name)
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if profile.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {profile.seed}")
    if profile.noise_model not in NOISE_MODELS:
        raise ConfigError(
            f"noise_model must be one of {NOISE_MODELS}, "
            f"got {profile.noise_model!r}"
        )
    if profile.interleaved_gate not in GATE_NAMES:
        raise ConfigError(
            f"interleaved_gate must be one of {GATE_NAMES}, "
            f"got {profile.interleaved_gate!r}"
        )
    if profile.qpt_target not in GATE_NAMES + ("identity",):
        raise ConfigError(f"unknown qpt target {profile.qpt_target!r}")
    for name in ("clifford_depol", "gate_depol"):
        value = getattr(profile, name)
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"{name} must lie in (0, 1], got {value}")
    if profile.qpt_shots is not None and profile.qpt_shots < 1:
        raise ConfigError("qpt shots must be positive (or exact)")
    for name in ("rabi_points", "tau2_points"):
        if getattr(profile, name) < 2:
            raise ConfigError(f"{name} must be at least 2")
    if profile.tau2_start < 0:
        raise ConfigError("tau2_start must be non-negative")
    for prefix in ("rabi", "tau2"):
        start = getattr(profile, f"{prefix}_start")
        stop = getattr(profile, f"{prefix}_stop")
        if not stop > start:
            raise ConfigError(f"{prefix}_stop must exceed {prefix}_start, "
                              f"got {stop} <= {start}")
    try:
        profile.rb_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(profile.lengths) < fit.MIN_POINTS:
        raise ConfigError(
            f"lengths must hold at least {fit.MIN_POINTS} values to fit "
            f"the decay, got {len(profile.lengths)}")
