"""Keyed text run configuration: `key = value` lines with `#` comments.

Every key has a documented default; unknown keys are rejected so typos
cannot silently fall back to defaults.  The keys set training and the
network layout only: grid resolution, evaluation points and sample counts
are options of the commands that use them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadValue, UnknownKey
from .field import Architecture
from .mesh import _text_lines
from .training import CONFIG_RECORD, TrainConfig


@dataclass
class RunSettings:
    """Training hyperparameters and the network layout."""

    train: TrainConfig
    arch: Architecture


def _parse_bool(text: str) -> bool:
    t = text.lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


# key -> (target section, attribute, parser): the training fields are those
# of training.CONFIG_RECORD, parsed after their record codes
_KEYS = {
    **{("lambda" if name == "lam" else name):
       ("train", name, {"I": int, "Q": int, "d": float, "B": _parse_bool}[code])
       for name, code in CONFIG_RECORD},
    "layer_count": ("arch", "layer_count", int),
    "hidden_width": ("arch", "hidden_width", int),
    "skip_layer": ("arch", "skip_layer", int),
    "softplus_beta": ("arch", "softplus_beta", float),
}


def parse_config(text: str | bytes) -> RunSettings:
    """Parse configuration text, or a configuration file's bytes, decoded as
    UTF-8; a line ends at `\\n`, `\\r\\n` or `\\r`, and a comment may hold
    any bytes.  Unspecified keys keep their defaults."""
    lines = _text_lines(text, lambda line: line.split("#", 1)[0],
                        lambda lineno: BadValue(f"line {lineno}: bytes that are not UTF-8 text"))
    kwargs = {"train": {}, "arch": {}}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        section, attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError:
            raise BadValue(f"line {lineno}: bad value {value!r} for key {key!r}")
        kwargs[section][attr] = parsed
    train = TrainConfig(**kwargs["train"])
    arch = Architecture(latent_dim=train.latent_dim, **kwargs["arch"])
    return RunSettings(train=train, arch=arch)


def render_config(settings: RunSettings) -> str:
    """Textual form of a settings object; parse_config inverts it exactly."""
    lines = []
    for key, (section, attr, _) in _KEYS.items():
        val = getattr(getattr(settings, section), attr)
        if isinstance(val, bool):
            lines.append(f"{key} = {'true' if val else 'false'}")
        elif isinstance(val, float):
            lines.append(f"{key} = {val!r}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
