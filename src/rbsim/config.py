"""INI-backed run profiles for the command-line entry points.

A profile collects everything a campaign needs: device parameters,
state-preparation and readout error, sequence-length schedule, shot
budget, and sweep grids.  Every key is optional; the defaults reproduce
the stock device.  Unknown sections or keys raise ConfigError so typos
fail loudly instead of silently benchmarking the wrong thing, and every
rejection names its ``[section] key``, or the model field the key feeds,
with the value.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from . import fit, rb


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Malformed configuration file or option value; argparse prints the
    message when a flag's converter, such as parse_lengths, raises it."""


NOISE_MODELS = ("device", "depolarizing")
GATE_NAMES = ("zx", "cnot", "iswap", "swap")
QPT_TARGETS = GATE_NAMES + ("identity",)


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


def _shots(text: str) -> int | None:
    return None if text.strip().lower() == "exact" else int(text)


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# (section, key) -> (field, parser).  [device] and [spam] keys feed
# DeviceParams and SpamModel; every other key sets a RunProfile field.
FIELDS = {
    ("run", "seed"): ("seed", int),
    ("run", "out_dir"): ("out_dir", str),
    **{("device", f.name): (f.name, float)
       for f in dataclasses.fields(dev.DeviceParams)},
    ("spam", "thermal"): ("thermal", float),
    ("spam", "thermal_pop_1"): ("thermal_pop_1", float),
    ("spam", "thermal_pop_2"): ("thermal_pop_2", float),
    ("spam", "misassignment"): ("misassignment", float),
    ("rb", "lengths"): ("lengths", parse_lengths),
    ("rb", "sequences"): ("sequences", int),
    ("rb", "shots"): ("shots", _shots),
    ("rb", "noise_model"): ("noise_model", str),
    ("rb", "clifford_depol"): ("clifford_depol", float),
    ("rb", "gate_depol"): ("gate_depol", float),
    ("rb", "interleaved_gate"): ("interleaved_gate", str.lower),
    ("qpt", "shots"): ("qpt_shots", _shots),
    ("qpt", "target"): ("qpt_target", str.lower),
    ("qpt", "spam_aware"): ("qpt_spam_aware", _boolean),
    ("sweep", "rabi_start"): ("rabi_start", float),
    ("sweep", "rabi_stop"): ("rabi_stop", float),
    ("sweep", "rabi_points"): ("rabi_points", int),
    ("sweep", "tau2_start"): ("tau2_start", float),
    ("sweep", "tau2_stop"): ("tau2_stop", float),
    ("sweep", "tau2_points"): ("tau2_points", int),
}
_SECTIONS = {section for section, _ in FIELDS}


def load_profile(path: str | None = None) -> RunProfile:
    """Profile from an INI file; None gives the defaults."""
    profile = RunProfile()
    if path is None:
        return profile
    # no interpolation: a '%' in a value is an ordinary character; no
    # default section: [DEFAULT] is an ordinary section, rejected as unknown
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as handle:
            cp.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    models = {"device": {}, "spam": {}}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in cp.items(section):
            if (section, key) not in FIELDS:
                raise ConfigError(f"[{section}] {key}: unknown key")
            name, parse = FIELDS[section, key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            if section in models:
                models[section][name] = value
            else:
                setattr(profile, name, value)

    try:
        profile.device = dataclasses.replace(profile.device, **models["device"])
    except ValueError as exc:
        raise ConfigError(f"[device] {exc}") from exc
    spam = models["spam"]
    thermal = spam.get("thermal", 0.0)
    e = spam.get("misassignment", 0.0)
    # checked here, as the key was written, not through the matrix entries
    if not 0.0 <= e <= 1.0:
        raise ConfigError("[spam] misassignment: misassignment must lie in "
                          f"[0, 1], got {e}")
    c1 = np.array([[1.0 - e, e], [e, 1.0 - e]])
    try:
        profile.spam = dev.SpamModel(spam.get("thermal_pop_1", thermal),
                                     spam.get("thermal_pop_2", thermal),
                                     np.kron(c1, c1))
    except ValueError as exc:
        raise ConfigError(f"[spam] {exc}") from exc
    validate(profile)
    return profile


# RunProfile field -> the "[section] key" that sets it in an INI file
_KEY_OF = {name: f"[{section}] {key}"
           for (section, key), (name, _) in FIELDS.items()
           if section not in ("device", "spam")}
# RBConfig field checked for each profile field that feeds it
_RB_FIELDS = {"lengths": "lengths", "sequences": "n_sequences"}


def _invalid(name: str, message: str) -> ConfigError:
    """Range error of profile field ``name``, led by its INI key."""
    return ConfigError(f"{_KEY_OF[name]}: {message}")


def validate(profile: RunProfile) -> None:
    """Raise ConfigError naming the first field with an invalid value,
    with the ``[section] key`` that sets it."""
    for name in ("rabi_start", "rabi_stop", "tau2_start", "tau2_stop"):
        value = getattr(profile, name)
        if not np.isfinite(value):
            raise _invalid(name, f"{name} must be finite, got {value}")
    if profile.seed < 0:
        raise _invalid("seed",
                       f"seed must be non-negative, got {profile.seed}")
    if profile.noise_model not in NOISE_MODELS:
        raise _invalid("noise_model",
                       f"noise_model must be one of {NOISE_MODELS}, "
                       f"got {profile.noise_model!r}")
    if profile.interleaved_gate not in GATE_NAMES:
        raise _invalid("interleaved_gate",
                       f"interleaved_gate must be one of {GATE_NAMES}, "
                       f"got {profile.interleaved_gate!r}")
    if profile.qpt_target not in QPT_TARGETS:
        raise _invalid("qpt_target",
                       f"qpt_target must be one of {QPT_TARGETS}, "
                       f"got {profile.qpt_target!r}")
    for name in ("clifford_depol", "gate_depol"):
        value = getattr(profile, name)
        if not 0.0 < value <= 1.0:
            raise _invalid(name, f"{name} must lie in (0, 1], got {value}")
    for name in ("shots", "qpt_shots"):
        value = getattr(profile, name)
        if value is not None and value < 1:
            raise _invalid(name, f"{name} must be positive (or exact), "
                           f"got {value}")
    for prefix in ("rabi", "tau2"):
        start = getattr(profile, f"{prefix}_start")
        stop = getattr(profile, f"{prefix}_stop")
        points = getattr(profile, f"{prefix}_points")
        if points < 2:
            raise _invalid(f"{prefix}_points", f"{prefix}_points must be at "
                           f"least 2, got {points}")
        # a drive or segment length cannot be negative
        if start < 0:
            raise _invalid(f"{prefix}_start", f"{prefix}_start must be "
                           f"non-negative, got {start}")
        if not stop > start:
            raise _invalid(f"{prefix}_stop", f"{prefix}_stop must exceed "
                           f"{prefix}_start, got {stop} <= {start}")
    # each campaign field alone, with RBConfig's own checks
    for name, rb_name in _RB_FIELDS.items():
        try:
            rb.RBConfig(**{rb_name: getattr(profile, name)})
        except ValueError as exc:
            raise _invalid(name, str(exc)) from exc
    if len(profile.lengths) < fit.MIN_POINTS:
        raise _invalid("lengths",
                       f"lengths must hold at least {fit.MIN_POINTS} values "
                       f"to fit the decay, got {len(profile.lengths)}")
