"""Mono audio container and WAV file I/O.

Only the two WAV sample formats that actually occur in the supported
corpora are accepted: 16-bit integer PCM and 32-bit IEEE float, each
either plain or as WAVE_FORMAT_EXTENSIBLE. Everything is normalized to
float64 in [-1, 1] on ingestion.

WAV files are parsed and written with struct and numpy alone. The
reader walks the little-endian RIFF chunks, skipping any chunk it does
not need (and its pad byte); RIFX, RF64 and other containers are
rejected. The writer emits mono 32-bit float: a RIFF header, an 18-byte
fmt chunk, a fact chunk with the sample count, then the data chunk.
Those are the bytes scipy.io.wavfile.write produces for a mono float32
array, but scipy.io is not imported: with scipy.sparse, which it loads,
it costs about 23 MB of memory on import.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["AudioSignal", "read_wav", "write_wav"]

PCM16_SCALE = 32768.0

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2-15 of every KSDATAFORMAT_SUBTYPE GUID whose first two bytes
# carry a plain format tag (RFC 2361).
_SUBTYPE_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> little-endian sample dtype
_SAMPLE_DTYPES = {
    (WAVE_FORMAT_PCM, 2): np.dtype("<i2"),
    (WAVE_FORMAT_IEEE_FLOAT, 4): np.dtype("<f4"),
}
_RIFF_SIZE_LIMIT = 0xFFFFFFFF


@dataclass(frozen=True)
class AudioSignal:
    """A mono audio signal.

    Attributes
    ----------
    samples : np.ndarray
        1-d float64 array of sample values.
    sample_rate : int
        Sampling rate in Hz.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(
                "AudioSignal requires a 1-d sample array, got shape %s"
                % (samples.shape,)
            )
        if samples.size == 0:
            raise ValueError("AudioSignal requires at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("AudioSignal samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive, got %r" % (self.sample_rate,))
        object.__setattr__(self, "samples", samples)

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate


def read_wav(path, mixdown: bool = False) -> AudioSignal:
    """Read a WAV file into an AudioSignal.

    Parameters
    ----------
    path : str or Path
        File to read. Must be a RIFF WAVE file of 16-bit PCM or 32-bit
        float samples.
    mixdown : bool
        If True, average the channels of a multichannel file down to
        mono. If False (default), a multichannel file is an error.

    Returns
    -------
    AudioSignal
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    sample_rate, data = _parse_wav(raw, path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    else:
        samples = data.astype(np.float64)
    if samples.shape[1] == 1:
        samples = samples[:, 0]
    elif mixdown:
        samples = samples.mean(axis=1)
    else:
        raise ValueError(
            "%s has %d channels; pass mixdown=True (CLI: --mixdown) to "
            "average them" % (path, samples.shape[1])
        )
    return AudioSignal(samples=samples, sample_rate=sample_rate)


def _parse_wav(raw: bytes, path) -> tuple[int, np.ndarray]:
    """Sample rate and (frames, channels) samples of a RIFF WAVE file.

    The samples are a read-only view of raw. A data chunk that runs
    past the end of the file is read up to its last whole frame.
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(
            "%s is not a RIFF WAVE file (starts with %r)" % (path, raw[:4])
        )
    fmt = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        body = pos + 8
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(raw[body : body + size], path)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("%s has no fmt chunk before its data" % (path,))
            sample_rate, channels, dtype = fmt
            n_frames = min(size, len(raw) - body) // (channels * dtype.itemsize)
            data = np.frombuffer(raw, dtype, count=n_frames * channels, offset=body)
            return sample_rate, data.reshape(n_frames, channels)
        pos = body + size + (size & 1)
    raise ValueError("%s has no data chunk" % (path,))


def _parse_fmt(chunk: bytes, path) -> tuple[int, int, np.dtype]:
    """Sample rate, channel count and sample dtype of a fmt chunk."""
    if len(chunk) < 16:
        raise ValueError("%s has a truncated fmt chunk" % (path,))
    tag, channels, sample_rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", chunk
    )
    if tag == WAVE_FORMAT_EXTENSIBLE and len(chunk) >= 40:
        subtype = chunk[24:40]
        if subtype[2:] == _SUBTYPE_GUID_TAIL:
            tag = struct.unpack_from("<H", subtype)[0]
    if channels == 0:
        raise ValueError("%s declares 0 channels" % (path,))
    dtype = _SAMPLE_DTYPES.get((tag, block_align // channels))
    if dtype is None or bits <= 8 or bits > 8 * dtype.itemsize:
        raise ValueError(
            "unsupported WAV sample format (format tag 0x%04x, %d bits in "
            "%d-byte frames) in %s; expected int16 PCM or float32"
            % (tag, bits, block_align, path)
        )
    return sample_rate, channels, dtype


def write_wav(path, signal: AudioSignal) -> None:
    """Write an AudioSignal to a mono 32-bit float WAV file."""
    data = signal.samples.astype("<f4")
    if data.nbytes + 50 > _RIFF_SIZE_LIMIT:
        raise ValueError(
            "%d samples do not fit in a RIFF WAV file" % (data.size,)
        )
    rate = signal.sample_rate
    header = struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", data.nbytes + 50, b"WAVE",
        b"fmt ", 18, WAVE_FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, data.size,
        b"data", data.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)
