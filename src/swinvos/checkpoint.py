"""Binary checkpoint format.

Layout (all integers little-endian):

    magic  b"HSTC"
    u32    format version (currently 2; any other version is refused)
    u32    config length, then that many bytes of canonical config text
    repeated parameter records:
        u32    name length, then the UTF-8 name
        u32    rank
        u64[]  extents
        u8     dtype tag (0 = f32; no other tag is written or read)
        raw little-endian payload
    u32    CRC32 of everything after the magic

Writes are atomic (temp file + rename), so a truncated file can only come
from outside interference and is rejected by the checksum/length checks
before any model state is touched.
"""

import math
import os
import struct
import zlib

import numpy as np

from .errors import DataError, UsageError
from .model import Model, ModelConfig

MAGIC = b"HSTC"
VERSION = 2

_F32_TAG = 0
_F32 = np.dtype("<f4")


def save_checkpoint(model, path):
    """Serialize every named parameter of ``model``, each float32, to ``path``."""
    body = bytearray()
    body += struct.pack("<I", VERSION)
    config_text = model.config.canonical().encode("utf-8")
    body += struct.pack("<I", len(config_text)) + config_text
    for name, param in model.named_parameters():
        encoded = name.encode("utf-8")
        body += struct.pack("<I", len(encoded)) + encoded
        value = param.data
        if value.dtype != np.float32:
            raise UsageError(f"checkpoints hold float32 parameters, {name} is {value.dtype}")
        body += struct.pack("<I", value.ndim)
        for extent in value.shape:
            body += struct.pack("<Q", extent)
        body += struct.pack("<B", _F32_TAG)
        body += value.astype(_F32, copy=False).tobytes()
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(body)
        fh.write(struct.pack("<I", crc))
    os.replace(tmp, path)


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n, what):
        if self.pos + n > len(self.blob):
            raise DataError(f"{self.path}: truncated file while reading {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def text(self, n, what):
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as err:
            raise DataError(f"{self.path}: {what} is not UTF-8 text") from err

    @property
    def remaining(self):
        return len(self.blob) - self.pos


def read_checkpoint(path):
    """Parse and verify a checkpoint; returns (config, {name: ndarray}), the
    arrays read-only views of the file's bytes."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: magic mismatch, not a checkpoint file")
    if len(blob) < 12:
        raise DataError(f"{path}: truncated file, no checksum present")
    crc_stored = struct.unpack("<I", blob[-4:])[0]
    crc_actual = zlib.crc32(blob[4:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise DataError(f"{path}: checksum mismatch "
                        f"(stored {crc_stored:#010x}, computed {crc_actual:#010x})")
    reader = _Reader(blob[4:-4], path)
    version = reader.u32("version")
    if version != VERSION:
        raise DataError(f"{path}: unsupported format version {version}, "
                        f"this build reads version {VERSION}")
    config_len = reader.u32("config length")
    config_text = reader.text(config_len, "config block")
    config = ModelConfig.from_canonical(config_text)
    params = {}
    while reader.remaining > 0:
        name_len = reader.u32("parameter name length")
        name = reader.text(name_len, "parameter name")
        rank = reader.u32(f"{name} rank")
        shape = tuple(reader.u64(f"{name} extent") for _ in range(rank))
        tag = reader.take(1, f"{name} dtype tag")[0]
        if tag != _F32_TAG:
            raise DataError(f"{path}: unknown dtype tag {tag} for {name}")
        payload = reader.take(math.prod(shape) * _F32.itemsize, f"{name} payload")
        try:
            params[name] = np.frombuffer(payload, _F32).reshape(shape)
        except ValueError as err:
            raise DataError(f"{path}: extents {shape} of {name} "
                            f"cannot form an array: {err}") from err
    return config, params


def load_checkpoint(path):
    """Rebuild a model from a checkpoint.

    The model is built without weight draws, and each record is written
    into its parameter's view of the model's buffer.
    """
    config, params = read_checkpoint(path)
    model = Model(config, None)
    names = dict(model.named_parameters())
    missing = set(names) - set(params)
    extra = set(params) - set(names)
    if missing or extra:
        raise DataError(f"{path}: parameter set mismatch "
                        f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")
    for name, value in params.items():
        target = names[name]
        if target.shape != value.shape:
            raise DataError(f"{path}: shape mismatch for {name}: "
                            f"file {value.shape} vs model {target.shape}")
        target.data[...] = value
    return model
