"""WAV IO and signal container behavior. scipy.io.wavfile is the
reference for the bytes vocsep writes and the samples it reads."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import vocsep.audio as audio_mod
from vocsep.audio import PCM16_SCALE, AudioSignal, read_wav, write_wav

PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def _write_raw(path, data, sample_rate=16000):
    wavfile.write(path, sample_rate, data)


def _chunk(chunk_id, body, endian="<"):
    pad = b"\x00" if len(body) % 2 else b""
    return chunk_id + struct.pack(endian + "I", len(body)) + body + pad


def _wav_bytes(fmt_body, data_body, extra=b"", form=b"RIFF", endian="<"):
    """A WAV file of a fmt chunk, any extra chunks, then the data chunk."""
    chunks = _chunk(b"fmt ", fmt_body, endian) + extra + _chunk(b"data", data_body, endian)
    return form + struct.pack(endian + "I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt(tag, channels, rate, bits, endian="<"):
    block_align = channels * ((bits + 7) // 8)
    return struct.pack(
        endian + "HHIIHH", tag, channels, rate, rate * block_align, block_align, bits
    )


def _extensible_fmt(channels, rate, bits, guid):
    valid_bits, channel_mask = bits, (1 << channels) - 1
    return (
        _fmt(0xFFFE, channels, rate, bits)
        + struct.pack("<HHI", 22, valid_bits, channel_mask)
        + guid
    )


def _scipy_samples(path):
    """What read_wav returned when it read through scipy.io.wavfile."""
    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        data = data.astype(np.float64) / PCM16_SCALE
    return rate, data.astype(np.float64)


class TestAudioSignal:
    def test_coerces_to_float64(self):
        sig = AudioSignal(np.zeros(4, dtype=np.float32), 8000)
        assert sig.samples.dtype == np.float64

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros((2, 2)), 8000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros(0), 8000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioSignal(np.array([0.0, np.nan]), 8000)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros(4), 0)

    def test_duration(self):
        sig = AudioSignal(np.zeros(16000), 16000)
        assert sig.duration_seconds == pytest.approx(1.0)


class TestReadWriteWav:
    def test_float_round_trip(self, tmp_path, rng):
        samples = rng.uniform(-0.9, 0.9, size=2048)
        path = tmp_path / "x.wav"
        write_wav(path, AudioSignal(samples, 16000))
        back = read_wav(path)
        assert back.sample_rate == 16000
        # written as float32, so round trip is float32-exact
        np.testing.assert_allclose(back.samples, samples.astype(np.float32))

    def test_largest_rate_the_header_holds(self, tmp_path):
        # the byte rate, 4 * rate, still fits the header's 4 bytes
        rate = 2**30 - 1
        path = tmp_path / "x.wav"
        write_wav(path, AudioSignal(np.zeros(4), rate))
        assert read_wav(path).sample_rate == rate

    @pytest.mark.parametrize("rate", [2**30, 16000.0], ids=["2**30", "float"])
    def test_rate_the_header_cannot_hold_is_rejected(self, tmp_path, rate):
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match=re.escape("sample rate of %r Hz" % (rate,))):
            write_wav(path, AudioSignal(np.zeros(4), rate))
        assert not path.exists()

    def test_samples_the_riff_size_cannot_hold_are_rejected(self, tmp_path, monkeypatch):
        # a limit of 450 bytes still holds the 400-byte byte rate of 100 Hz,
        # and the 50 header bytes after the size field and 100 float32 samples
        monkeypatch.setattr(audio_mod, "_RIFF_SIZE_LIMIT", 450)
        fits = tmp_path / "fits.wav"
        write_wav(fits, AudioSignal(np.zeros(100), 100))
        assert read_wav(fits).samples.size == 100
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match="101 samples do not fit in a RIFF WAV file"):
            write_wav(path, AudioSignal(np.zeros(101), 100))
        assert not path.exists()

    def test_int16_scaling(self, tmp_path):
        data = np.array([0, 16384, -16384, 32767, -32768], dtype=np.int16)
        path = tmp_path / "i.wav"
        _write_raw(path, data)
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, data / PCM16_SCALE)

    def test_unsupported_dtype(self, tmp_path):
        data = np.zeros(16, dtype=np.uint8)
        path = tmp_path / "u.wav"
        _write_raw(path, data)
        with pytest.raises(ValueError, match="unsupported WAV sample format"):
            read_wav(path)

    def test_column_vector_squeezed(self, tmp_path):
        data = np.zeros((32, 1), dtype=np.float32)
        data[0, 0] = 0.5
        path = tmp_path / "c.wav"
        _write_raw(path, data)
        back = read_wav(path)
        assert back.samples.ndim == 1
        assert back.samples[0] == pytest.approx(0.5)

    def test_stereo_requires_mixdown(self, tmp_path):
        data = np.zeros((32, 2), dtype=np.float32)
        data[:, 0] = 0.5
        path = tmp_path / "s.wav"
        _write_raw(path, data)
        with pytest.raises(ValueError):
            read_wav(path)
        back = read_wav(path, mixdown=True)
        np.testing.assert_allclose(back.samples, np.full(32, 0.25))

    def test_missing_file(self, tmp_path):
        with pytest.raises((OSError, ValueError)):
            read_wav(tmp_path / "nope.wav")

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_round_trip_preserves_length_and_rate(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, size=n)
        path = tmp_path_factory.mktemp("wav") / "p.wav"
        write_wav(path, AudioSignal(samples, 22050))
        back = read_wav(path)
        assert back.samples.size == n
        assert back.sample_rate == 22050
        np.testing.assert_allclose(back.samples, samples, atol=1e-6)


class TestWavBytes:
    @settings(max_examples=30, deadline=None)
    @given(
        rate=st.sampled_from([1, 8000, 16000, 22050, 44100, 48000, 96000, 192000]),
        n=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_write_matches_scipy_bytes(self, tmp_path_factory, rate, n, seed):
        samples = np.random.default_rng(seed).uniform(-1.5, 1.5, size=n)
        root = tmp_path_factory.mktemp("bytes")
        write_wav(root / "ours.wav", AudioSignal(samples, rate))
        wavfile.write(root / "scipy.wav", rate, samples.astype(np.float32))
        assert (root / "ours.wav").read_bytes() == (root / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_read_matches_scipy(self, tmp_path, rng, dtype, channels):
        data = rng.uniform(-1, 1, size=(257, channels))
        if dtype is np.int16:
            data = np.round(data * 32767)
        data = data.astype(dtype)
        if channels == 1:
            data = data[:, 0]
        path = tmp_path / "x.wav"
        wavfile.write(path, 22050, data)
        rate, expected = _scipy_samples(path)
        if channels > 1:
            expected = expected.mean(axis=1)
        back = read_wav(path, mixdown=True)
        assert back.sample_rate == rate == 22050
        np.testing.assert_array_equal(back.samples, expected)

    @pytest.mark.parametrize(
        "bits,guid,dtype", [(16, PCM_GUID, "<i2"), (32, FLOAT_GUID, "<f4")]
    )
    def test_extensible_header_matches_scipy(self, tmp_path, rng, bits, guid, dtype):
        data = rng.uniform(-1, 1, size=(100, 2))
        if bits == 16:
            data = np.round(data * 32767)
        data = data.astype(dtype)
        path = tmp_path / "ext.wav"
        path.write_bytes(_wav_bytes(_extensible_fmt(2, 48000, bits, guid), data.tobytes()))
        rate, expected = _scipy_samples(path)
        back = read_wav(path, mixdown=True)
        assert back.sample_rate == rate == 48000
        np.testing.assert_array_equal(back.samples, expected.mean(axis=1))

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_odd_list_chunk_before_data_matches_scipy(self, tmp_path, rng):
        data = rng.uniform(-1, 1, size=99).astype("<f4")
        path = tmp_path / "list.wav"
        info = _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00abcd\x00")
        junk = _chunk(b"junk", b"\x01\x02\x03")
        assert len(info) % 2 == 0 and len(junk) % 2 == 0  # both padded
        path.write_bytes(_wav_bytes(_fmt(3, 1, 8000, 32), data.tobytes(), info + junk))
        rate, expected = _scipy_samples(path)
        back = read_wav(path)
        assert back.sample_rate == rate == 8000
        np.testing.assert_array_equal(back.samples, expected)

    def test_truncated_data_chunk_reads_whole_frames(self, tmp_path):
        data = np.arange(10, dtype="<i2")
        raw = _wav_bytes(_fmt(1, 2, 8000, 16), data.tobytes())
        path = tmp_path / "cut.wav"
        path.write_bytes(raw[:-6])  # keeps 3 whole 2-channel frames and one half
        back = read_wav(path, mixdown=True)
        np.testing.assert_array_equal(back.samples, [0.5, 2.5, 4.5] / np.float64(PCM16_SCALE))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32])
    def test_scipy_int_formats_are_unsupported(self, tmp_path, dtype):
        path = tmp_path / "i.wav"
        _write_raw(path, np.zeros(16, dtype=dtype))
        with pytest.raises(ValueError, match="unsupported WAV sample format"):
            read_wav(path)

    def test_24_bit_pcm_is_unsupported(self, tmp_path):
        path = tmp_path / "i24.wav"
        path.write_bytes(_wav_bytes(_fmt(1, 1, 16000, 24), bytes(48)))
        with pytest.raises(ValueError, match="unsupported WAV sample format"):
            read_wav(path)

    def test_extensible_with_unknown_subtype_is_unsupported(self, tmp_path):
        path = tmp_path / "ext.wav"
        guid = bytes.fromhex("0100000000001000800000aa00389b72")
        path.write_bytes(_wav_bytes(_extensible_fmt(1, 16000, 16, guid), bytes(32)))
        with pytest.raises(ValueError, match="unsupported WAV sample format"):
            read_wav(path)

    def test_rifx_is_rejected(self, tmp_path):
        path = tmp_path / "rifx.wav"
        data = np.zeros(16, dtype=">i2").tobytes()
        path.write_bytes(_wav_bytes(_fmt(1, 1, 16000, 16, ">"), data, form=b"RIFX", endian=">"))
        assert wavfile.read(path)[0] == 16000  # a valid file scipy reads
        with pytest.raises(ValueError, match="not a RIFF WAVE file"):
            read_wav(path)

    def test_rf64_is_rejected(self, tmp_path):
        data = np.zeros(16, dtype="<f4").tobytes()
        fmt = _chunk(b"fmt ", _fmt(3, 1, 16000, 32) + b"\x00\x00")
        ds64 = _chunk(b"ds64", struct.pack("<QQQI", 0, len(data), 16, 0))
        body = b"WAVE" + ds64 + fmt + b"data" + struct.pack("<I", 0xFFFFFFFF) + data
        raw = b"RF64" + struct.pack("<I", 0xFFFFFFFF) + body
        raw = raw[:20] + struct.pack("<Q", len(raw) - 8) + raw[28:]
        path = tmp_path / "rf64.wav"
        path.write_bytes(raw)
        assert wavfile.read(path)[1].size == 16  # a valid file scipy reads
        with pytest.raises(ValueError, match="not a RIFF WAVE file"):
            read_wav(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"RIFF",
            b"OggS\x00\x02" + bytes(40),
            b"RIFF\x04\x00\x00\x00AVI ",
        ],
    )
    def test_non_wav_bytes_are_rejected(self, tmp_path, raw):
        path = tmp_path / "not.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="not a RIFF WAVE file"):
            read_wav(path)

    @pytest.mark.parametrize(
        "raw,message",
        [
            (_wav_bytes(_fmt(1, 1, 16000, 16)[:14], bytes(8)), "truncated fmt chunk"),
            (_wav_bytes(_fmt(1, 0, 16000, 16), bytes(8)), "0 channels"),
            (_wav_bytes(_fmt(1, 1, 0, 16), bytes(8)), "sample_rate must be positive"),
            (b"RIFF\x1c\x00\x00\x00WAVE" + _chunk(b"data", bytes(8)), "no fmt chunk"),
            (b"RIFF\x1c\x00\x00\x00WAVE" + _chunk(b"fmt ", _fmt(1, 1, 8000, 16)), "no data chunk"),
            (b"RIFF\x0c\x00\x00\x00WAVEfmt \x10\x00", "no data chunk"),
        ],
    )
    def test_malformed_structure_is_rejected(self, tmp_path, raw, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=message):
            read_wav(path)
