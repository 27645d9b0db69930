"""The model configuration and the choices its options take.

``VARIANTS`` sizes the backbone (the Swin T/S/B/L widths and depths, plus a
desk-scale ``nano``); ``ModelConfig`` is the one configuration type. This
module imports no numpy, so the CLI can take its choices from here before
``--threads`` caps BLAS.
"""

from dataclasses import dataclass, field, fields

from .errors import ConfigError

VARIANTS = {
    "nano": dict(dim=8, depths=(1, 1, 2, 1), window=4, temporal_window=1,
                 decoder_width=32),
    "T": dict(dim=96, depths=(2, 2, 6, 2), window=7, temporal_window=8,
              decoder_width=256),
    "S": dict(dim=96, depths=(2, 2, 18, 2), window=7, temporal_window=8,
              decoder_width=256),
    "B": dict(dim=128, depths=(2, 2, 18, 2), window=12, temporal_window=8,
              decoder_width=256),
    "L": dict(dim=192, depths=(2, 2, 18, 2), window=12, temporal_window=8,
              decoder_width=256),
}

MEMORY_POLICIES = ("every8", "firstprev")
MEMORY_STRIDE = 8  # every8 keeps the frames whose index is a multiple of this
ENCODER_MODES = ("full", "image_only")
READ_MODES = ("hierarchical_topk", "last_stage_only", "dense_all")
GRADCHECK_SEED = 1234  # default seed of the gradcheck command


@dataclass(frozen=True)
class ModelConfig:
    """The variant and the options; the five fields after ``variant`` are
    set from its ``VARIANTS`` row."""
    variant: str = "nano"
    dim: int = field(init=False)
    depths: tuple = field(init=False)
    window: int = field(init=False)
    temporal_window: int = field(init=False)
    decoder_width: int = field(init=False)
    k: int = 128
    memory_policy: str = "every8"
    other_mask_enabled: bool = True
    encoder_mode: str = "full"
    read_mode: str = "hierarchical_topk"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}, expected one of {sorted(VARIANTS)}")
        for name, value in VARIANTS[self.variant].items():
            object.__setattr__(self, name, value)
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.memory_policy not in MEMORY_POLICIES:
            raise ConfigError(f"memory policy must be one of {MEMORY_POLICIES}")
        if self.encoder_mode not in ENCODER_MODES:
            raise ConfigError(f"encoder mode must be one of {ENCODER_MODES}")
        if self.read_mode not in READ_MODES:
            raise ConfigError(f"read mode must be one of {READ_MODES}")

    def canonical(self):
        """Stable key=value text used for checkpoint embedding and --dump-config:
        every field in declaration order, tuples comma-joined, bools as 0/1."""
        return "".join(f"{f.name}={_field_text(getattr(self, f.name))}\n"
                       for f in fields(self))

    @classmethod
    def from_canonical(cls, text):
        names = {f.name for f in fields(cls)}
        pairs = {}
        for line in text.strip().splitlines():
            key, sep, value = line.partition("=")
            problem = ("no '='" if not sep else "an unknown field" if key not in names
                       else "a repeated field" if key in pairs else None)
            if problem:
                raise ConfigError(f"config text line {line!r} has {problem}")
            pairs[key] = value
        missing = [f.name for f in fields(cls) if f.name not in pairs]
        if missing:
            raise ConfigError(f"config text missing field {missing[0]!r}")
        config = cls(**{f.name: _parse_field(f, pairs[f.name]) for f in fields(cls) if f.init})
        # fixed by the variant; canonical text repeats them for readers
        for f in fields(cls):
            expected = _field_text(getattr(config, f.name))
            if not f.init and pairs[f.name] != expected:
                raise ConfigError(
                    f"config text has {f.name}={pairs[f.name]}, variant "
                    f"{config.variant} has {f.name}={expected}")
        return config


def _parse_field(f, value):
    """An init field's value from its text, by the field's declared type."""
    if f.type is str:
        return value
    try:
        number = int(value)
    except ValueError as err:
        raise ConfigError(
            f"config text has a non-integer field: {f.name}={value!r}") from err
    if f.type is bool and number not in (0, 1):
        raise ConfigError(f"{f.name} must be 0 or 1, got {value}")
    return bool(number) if f.type is bool else number


def _field_text(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(int(value) if isinstance(value, bool) else value)
