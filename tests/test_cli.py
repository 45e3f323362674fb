"""End-to-end CLI pipelines and exit-code mapping."""

import ast
import dataclasses
import inspect
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from csilab import cli, errors, estimators, synth
from csilab._atomic import atomic_write
from csilab.cli import _write_csv, _write_text, main
from csilab.scenarios import preset, preset_names
from csilab.synth import AcquisitionConfig, synthesize, synthesize_stream
from csilab.tracefile import HEADER_SIZE, write_stream
from slow_reference import coherent_traces


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def g10_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "g10.cstf"
    assert run("simulate", "--config", "G10", "--out", str(out), "--sets", "60") == 0
    return out


def test_simulate_prints_summary(tmp_path, capsys):
    out = tmp_path / "t.cstf"
    rc = run("simulate", "--config", "G10", "--out", str(out), "--sets", "20")
    txt = capsys.readouterr().out
    assert rc == 0
    assert "20 sets x 10000 samples x 4 channels" in txt
    assert "dc means:" in txt
    assert out.stat().st_size == 82 + 20 * 4 * 10000 * 2


def test_simulate_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.cstf", tmp_path / "b.cstf"
    for p in (a, b):
        assert (
            run("simulate", "--config", "G5", "--out", str(p),
                "--sets", "8", "--seed", "0xCAFE") == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_simulate_invalid_bits_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[acquisition]\nadc_bits = 0\n")
    rc = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.cstf"))
    assert rc == 2
    assert "adc_bits" in capsys.readouterr().err


def test_simulate_invalid_model_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\neta = 1.5\n")
    rc = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.cstf"))
    assert rc == 2
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("line", [
    "[acquisition]\nsample_rate_mhz = nan\n",
    "[acquisition]\nsample_rate_mhz = inf\n",
    "[model]\ngain_bandwidth_mhz = nan\n",
    "[analysis]\nf_hi_mhz = -inf\n",
])
def test_non_finite_config_number_writes_nothing(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(line)
    out = tmp_path / "out"
    target = ["--out", str(out / "t.cstf")] if command == "simulate" else ["--out", str(out)]
    assert run(command, "--config", str(cfg), "--sets", "2", *target) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_inverted_spectra_band_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[analysis]\nspectra_hi_mhz = 0.3\n")  # below f_lo = 0.5 MHz
    out = tmp_path / "out"
    assert run("report", "--config", str(cfg), "--sets", "2", "--out", str(out)) == 2
    assert "spectra band" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_missing_config_is_io_error(tmp_path):
    rc = run("simulate", "--config", str(tmp_path / "absent.ini"),
             "--out", str(tmp_path / "x.cstf"))
    assert rc == 3


def test_analyze_outputs(tmp_path, g10_file, capsys):
    outdir = tmp_path / "rep"
    rc = run("analyze", str(g10_file), "--config", "G10", "--out", str(outdir))
    assert rc == 0
    txt = capsys.readouterr().out
    assert "CSI VIOLATED" in txt
    assert "sigma_count" in txt
    assert (outdir / "summary.txt").read_text() == txt
    curves = np.loadtxt(outdir / "g2_curves.csv", delimiter=",", skiprows=1)
    assert curves.shape[1] == 4
    with open(outdir / "g2_curves.csv") as fh:
        assert fh.readline().strip() == "tau_s,g2_ab,g2_aa,g2_bb"
    with open(outdir / "spectra.csv") as fh:
        assert fh.readline().strip() == "f_hz,s_p_norm,s_c_norm,s_diff_norm"
    spectra = np.loadtxt(outdir / "spectra.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(spectra))


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_producer_failing_after_its_first_block_writes_no_container(tmp_path, monkeypatch,
                                                                   command):
    """The container is streamed to a temporary sibling; a synthesis block
    that fails after the first leaves no file, no temporary and no
    directory at --out."""
    make = cli.synthesize_stream

    def failing(model, acq):
        stream = make(model, acq)

        def blocks():
            yield next(iter(stream.blocks()))
            raise RuntimeError("producer died")

        return dataclasses.replace(stream, blocks=blocks)

    monkeypatch.setattr(cli, "synthesize_stream", failing)
    out = tmp_path / ("t.cstf" if command == "simulate" else "rep")
    with pytest.raises(RuntimeError, match="producer died"):
        run(command, "--config", "G10", "--sets", "40", "--out", str(out))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("ini, threads, why", [
    ("[model]\ngain_bandwidth_mhz = 200\n", None, "too low to resolve"),
    ("[model]\ndelay_ns = 2000\n", None, "set duration"),
    ("", "many", "CSILAB_THREADS"),
    ("", "0", "CSILAB_THREADS"),
    ("", "-2", "CSILAB_THREADS"),
])
def test_config_synthesis_refuses_writes_nothing(tmp_path, monkeypatch, capsys, command,
                                                 ini, threads, why):
    """Every check synthesis makes runs before a directory or a temporary
    file exists."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    if threads is not None:
        monkeypatch.setenv("CSILAB_THREADS", threads)
    out = tmp_path / "out"
    target = out / "t.cstf" if command == "simulate" else out
    if command == "simulate":
        out.mkdir()
    assert run(command, "--config", str(cfg), "--sets", "2", "--out", str(target)) == 2
    assert why in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == (["bad.ini", "out"] if command == "simulate"
                                            else ["bad.ini"])
    assert not target.exists()
    if command == "simulate":
        assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("cut", [2, 3 * 80_000 + 1])  # into the last set, or across sets
def test_payload_ending_early_exits_4_and_writes_nothing(tmp_path, g10_file, capsys,
                                                         command, cut):
    bad = tmp_path / "short.cstf"
    bad.write_bytes(g10_file.read_bytes()[:-cut])
    extra = ["--cutoffs", "5e6"] if command == "sweep" else []
    assert run(command, str(bad), *extra, "--out", str(tmp_path / "out")) == 4
    assert "payload is" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["short.cstf"]


def test_lag_window_past_half_a_set_exits_2_and_writes_nothing(tmp_path, g10_file, capsys):
    cfg = tmp_path / "long.ini"
    cfg.write_text("[scenario]\npreset = G10\n[analysis]\ntau_max_ns = 1e6\n")
    outdir = tmp_path / "rep"
    assert run("analyze", str(g10_file), "--config", str(cfg), "--out", str(outdir)) == 2
    assert "tau_max" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("ini, cutoffs, why", [
    ("[analysis]\ntau_max_ns = 1e6\n", None, "tau_max"),
    ("", "1e5", "f_lo"),  # below the scenario's f_lo
    ("", "6e8", "Nyquist"),
    ("[analysis]\nf_hi_mhz = 600\n", "5e6", "Nyquist"),  # the scenario's own bandpass
    ("[analysis]\nspectra_hi_mhz = 600\n", None, "exceeds the data grid"),
    ("[acquisition]\nsamples_per_set = 150\n[analysis]\ntau_max_ns = 10\n", None,
     "samples_per_set must be at least 170"),  # a g2 window that fits, sets too short
], ids=["tau_max", "cutoff_below_f_lo", "cutoff_at_nyquist", "bandpass_at_nyquist",
        "spectra_band_past_nyquist", "sets_shorter_than_the_delay_search"])
def test_report_refuses_analysis_settings_before_writing(tmp_path, capsys, ini, cutoffs,
                                                         why):
    """A setting the estimators refuse, a g2 window, band, bandpass, sweep
    cutoff or set length, leaves neither the directory nor the container."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    extra = [] if cutoffs is None else ["--cutoffs", cutoffs]
    out = tmp_path / "out"
    assert run("report", "--config", str(cfg), "--sets", "2", *extra, "--out", str(out)) == 2
    assert why in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.ini"]


def test_refused_report_keeps_an_earlier_run(tmp_path, capsys):
    out = tmp_path / "rep"
    assert run("report", "--config", "G10", "--sets", "8", "--out", str(out)) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert run("report", "--config", "G10", "--sets", "1", "--seed", "9",
               "--out", str(out)) == 2
    assert "only 1 of 1 sets" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_one_set_report_removes_only_the_levels_it_made(tmp_path, capsys):
    """--out under a kept directory, three levels of it missing."""
    (tmp_path / "kept").mkdir()
    out = tmp_path / "kept" / "new" / "deeper" / "rep"
    assert run("report", "--config", "G10", "--sets", "1", "--out", str(out)) == 2
    assert "only 1 of 1 sets" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["kept"]
    assert os.listdir(tmp_path / "kept") == []


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_one_set_container_exits_2_and_writes_nothing(tmp_path, capsys, command):
    trace = tmp_path / "one.cstf"
    assert run("simulate", "--config", "G10", "--sets", "1", "--out", str(trace)) == 0
    capsys.readouterr()
    extra = ["--cutoffs", "5e6"] if command == "sweep" else []
    assert run(command, str(trace), *extra, "--out", str(tmp_path / "out")) == 2
    assert "only 1 of 1 sets carry a positive cross-correlation" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["one.cstf"]


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_dead_detector_exits_2_and_writes_nothing(tmp_path, capsys, command):
    """A container whose c1 codes are all 0, its DC mean still recorded,
    once read as a strong violation; it has no V."""
    sc = preset("G10")
    ts = synthesize(sc.model, dataclasses.replace(sc.acquisition, num_sets=8, rng_seed=1))
    codes = ts.codes.copy()
    codes[2] = 0
    trace = tmp_path / "dead.cstf"
    write_stream(dataclasses.replace(ts, codes=codes), trace)
    extra = ["--cutoffs", "5e6"] if command == "sweep" else []
    assert run(command, str(trace), *extra, "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert "conjugate split-pair sum is 0" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["dead.cstf"]


def test_report_of_a_one_bin_band_exits_2_and_writes_nothing(tmp_path, capsys):
    """A bandpass that holds one bin of the grid gives the spectral test
    nothing to integrate; it printed lhs = 0, rhs = 0 before."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[scenario]\npreset = G10\n[analysis]\nf_lo_mhz = 0.95\nf_hi_mhz = 1.05\n")
    out = tmp_path / "out"
    assert run("report", "--config", str(cfg), "--sets", "8", "--seed", "1",
               "--cutoffs", "1.05e6", "--out", str(out)) == 2
    assert "holds one frequency bin" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.ini"]


def test_bandpass_that_passes_no_bin_exits_2_and_writes_nothing(tmp_path, g10_file, capsys):
    """A 100-200 Hz bandpass lies inside the DC bin of the 100 kHz grid;
    it once built and then read as 0 of 60 sets carrying a
    cross-correlation."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[scenario]\npreset = G10\n[analysis]\nf_lo_mhz = 0.0001\n"
                   "f_hi_mhz = 0.0002\n")
    out = tmp_path / "out"
    assert run("analyze", str(g10_file), "--config", str(cfg), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "passes no bin of the 100000 Hz grid" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["cfg.ini"]


def test_analyze_truncated_file(tmp_path, g10_file, capsys):
    bad = tmp_path / "broken.cstf"
    bad.write_bytes(g10_file.read_bytes()[:5000])
    rc = run("analyze", str(bad), "--out", str(tmp_path / "rep"))
    assert rc == 4
    assert not (tmp_path / "rep").exists()  # nothing written on failure


@pytest.mark.parametrize("samples", [16, 64, 65, 66])
def test_analyze_short_sets_is_config_error(tmp_path, capsys, samples):
    """Sets too short for the delay search to judge a peak are refused."""
    cfg = tmp_path / "short.ini"
    cfg.write_text("[scenario]\npreset = G10_IDEAL\n"
                   f"[acquisition]\nsamples_per_set = {samples}\n")
    trace = tmp_path / "short.cstf"
    assert run("simulate", "--config", str(cfg), "--sets", "4", "--out", str(trace)) == 0
    capsys.readouterr()
    rc = run("analyze", str(trace), "--config", "G10_IDEAL", "--out", str(tmp_path / "r"))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{samples} samples per set" in err
    assert "samples_per_set must be at least 170" in err


def _rewrite_header(path, offset, fmt, value):
    """Overwrite one header field of a container and recompute its CRC."""
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    struct.pack_into("<I", blob, HEADER_SIZE - 4, zlib.crc32(blob[: HEADER_SIZE - 4]))
    path.write_bytes(blob)


@pytest.mark.parametrize("offset, fmt, value", [
    (28, "<H", 20),               # ADC bits
    (12, "<Q", 8),                # samples per set
    (8, "<I", 0),                 # number of sets
    (20, "<d", float("nan")),     # sample rate
    (30, "<d", float("inf")),     # full scale
])
def test_analyze_malformed_header_field_is_trace_error(tmp_path, capsys, offset, fmt, value):
    trace = tmp_path / "t.cstf"
    write_stream(coherent_traces(AcquisitionConfig(num_sets=2, samples_per_set=256)), trace)
    _rewrite_header(trace, offset, fmt, value)
    assert run("analyze", str(trace), "--out", str(tmp_path / "r")) == 4
    assert "invalid header" in capsys.readouterr().err


def test_analyze_nan_dc_mean_is_dc_missing(tmp_path, capsys):
    trace = tmp_path / "t.cstf"
    write_stream(coherent_traces(AcquisitionConfig(num_sets=4, samples_per_set=256)), trace)
    _rewrite_header(trace, 38, "<d", float("nan"))  # DC mean of p1
    assert run("analyze", str(trace), "--out", str(tmp_path / "r")) == 2
    assert "DC means" in capsys.readouterr().err


def test_analyze_missing_trace(tmp_path):
    rc = run("analyze", str(tmp_path / "absent.cstf"), "--out", str(tmp_path / "r"))
    assert rc == 3


def test_sweep_rows(tmp_path, g10_file, capsys):
    outdir = tmp_path / "sw"
    rc = run("sweep", str(g10_file), "--cutoffs", "2e6, 15e6", "--out", str(outdir))
    assert rc == 0
    rows = np.loadtxt(outdir / "vsweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 3)
    assert rows[0, 0] == 2e6 and rows[1, 0] == 15e6
    assert np.all(rows[:, 1] < 1.0)  # G10 violates at every cutoff


def test_sweep_empty_cutoffs(tmp_path, g10_file):
    rc = run("sweep", str(g10_file), "--cutoffs", " ", "--out", str(tmp_path / "s"))
    assert rc == 2


@pytest.mark.parametrize("command", ["sweep", "report"])
@pytest.mark.parametrize("cutoffs", ["abc", "nan", "", "2e6,inf"])
def test_bad_cutoffs_exit_2_and_write_nothing(tmp_path, g10_file, monkeypatch, capsys,
                                              command, cutoffs):
    """The cutoff list is checked before a container is read or made."""
    def refused(*args):
        raise AssertionError("the container was touched before --cutoffs was checked")

    monkeypatch.setattr(cli, "open_stream", refused)
    monkeypatch.setattr(cli, "synthesize_stream", refused)
    out = tmp_path / "out"
    trace = [str(g10_file)] if command == "sweep" else ["--sets", "2"]
    assert run(command, *trace, "--cutoffs", cutoffs, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--cutoffs" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_delay_compensation_cannot_be_turned_off(tmp_path, g10_file, capsys, command):
    """V, sigma_count and the verdict always use the compensated delay, so
    no flag turns compensation off for the spectra alone: the removed
    --no-compensate-delay is refused like any unknown option, before a
    container is read or made."""
    out = tmp_path / "out"
    trace = [str(g10_file)] if command == "analyze" else ["--sets", "2"]
    with pytest.raises(SystemExit) as exc:
        run(command, *trace, "--no-compensate-delay", "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-compensate-delay" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_theory_table(capsys):
    assert run("theory", "--gain", "10", "--gain", "1", "--eta", "0.8") == 0
    txt = capsys.readouterr().out
    assert "0.9500" in txt and "-6.16" in txt
    assert "0.5000" in txt and "+0.00" in txt


def test_theory_oracle(capsys):
    assert run("theory", "--gain", "1.2", "--oracle") == 0
    txt = capsys.readouterr().out
    assert "oracle" in txt


def test_theory_oracle_passes_where_truncation_ended_early(capsys):
    # with a 1e-10 norm tolerance the oracle stopped at dimension 24 here
    # and its g2 moments came out 4.3e-8 off the closed forms
    assert run("theory", "--gain", "1.27", "--oracle") == 0
    assert "ORACLE MISMATCH" not in capsys.readouterr().err


def test_theory_bad_gain(capsys):
    assert run("theory", "--gain", "0.5") == 2


@pytest.mark.parametrize("argv", [["--gain", "nan"], ["--gain", "inf"], ["--eta", "0"],
                                  ["--gain", "2", "--gain", "nan"]])
def test_theory_refusal_prints_no_table(capsys, argv):
    assert run("theory", *argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be" in err


def test_cli_imports_no_private_name():
    """The CLI calls the public functions of every csilab module only, so
    every refusal is decided in the module that owns it."""
    tree = ast.parse(inspect.getsource(cli))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "csilab")]
    assert {"estimators", "tracefile", "synth"} <= {node.module for node in imports}
    private = [(node.module, alias.name) for node in imports
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _error_types(cls=errors.CsilabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


@pytest.mark.parametrize("exc", sorted(set(_error_types()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_package_errors_map_to_exit_codes(monkeypatch, capsys, exc):
    """A trace-container fault exits 4, every other package error 2, never
    the 3 of an OSError."""

    def fail(args):
        raise exc("boom")

    assert not issubclass(exc, OSError)
    monkeypatch.setattr(cli, "cmd_theory", fail)
    assert run("theory") == (4 if issubclass(exc, errors.TraceFileError) else 2)
    assert capsys.readouterr().err == "error: boom\n"


def test_report_pipeline(tmp_path, capsys):
    outdir = tmp_path / "full"
    rc = run("report", "--config", "G2", "--out", str(outdir),
             "--sets", "80", "--cutoffs", "1e6,8e6,15e6")
    assert rc == 0
    txt = capsys.readouterr().out
    assert "CSI NOT VIOLATED" in txt
    for name in ("traces.cstf", "g2_curves.csv", "spectra.csv",
                 "vsweep.csv", "summary.txt"):
        assert (outdir / name).exists()
    rows = np.loadtxt(outdir / "vsweep.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] < 1.0 < rows[-1, 1]  # violation at 1 MHz, lost by 15 MHz


@pytest.mark.parametrize("f_lo_mhz, want_mhz", [
    (2.0, list(range(3, 16))),  # whole MHz above f_lo only
    (1.9, list(range(2, 16))),
    (14.5, [15]),
    (14.8, [15]),
])
def test_report_default_cutoffs_start_above_f_lo(tmp_path, capsys, f_lo_mhz, want_mhz):
    """The default sweep runs over the whole MHz values in (f_lo, f_hi]."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[scenario]\npreset = G10\n[analysis]\nf_lo_mhz = {f_lo_mhz}\n")
    out = tmp_path / "rep"
    assert run("report", "--config", str(cfg), "--sets", "4", "--out", str(out)) == 0
    rows = np.loadtxt(out / "vsweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [m * 1e6 for m in want_mhz]


def test_report_default_cutoffs_without_a_whole_mhz_are_f_hi(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[scenario]\npreset = G10\n[analysis]\nf_lo_mhz = 15.2\nf_hi_mhz = 15.9\n")
    out = tmp_path / "rep"
    assert run("report", "--config", str(cfg), "--sets", "4", "--out", str(out)) == 0
    rows = np.loadtxt(out / "vsweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [15.9e6]


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_keeps_its_default_cutoffs(name):
    """1 MHz up to f_hi in whole MHz, the list every preset had before the
    default honoured f_lo."""
    bandpass = preset(name).analysis.bandpass
    assert bandpass.f_lo < 1e6
    top = int(bandpass.f_hi / 1e6)
    assert cli._default_cutoffs(bandpass) == [f * 1e6 for f in range(1, top + 1)]


def test_report_transforms_each_channel_once_and_each_beam_once(tmp_path, monkeypatch):
    calls = {"rfft": 0, "points": 0, "delay": 0}
    rfft, fit = np.fft.rfft, estimators._delay_from_covariance

    def counted_rfft(a, *args, **kwargs):
        calls["rfft"] += 1
        calls["points"] += np.size(a)
        return rfft(a, *args, **kwargs)

    def counted_fit(*args):
        calls["delay"] += 1
        return fit(*args)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(estimators, "_delay_from_covariance", counted_fit)
    rc = run("report", "--config", "G10", "--out", str(tmp_path / "rep"), "--sets", "12")
    assert rc == 0
    # analysis and sweep share one Spectra: each channel of each set is
    # transformed once, UNIT_SETS sets at a time, the delay found once, and
    # the second pass transforms each beam, its halves summed, once
    chunks = -(-12 // synth.UNIT_SETS)
    assert calls == {"rfft": 6 * chunks, "points": 6 * 12 * 10000, "delay": 1}


def test_module_entry_point():
    """``python -m csilab.cli`` runs in a fresh interpreter that finds the
    csilab this test imported, whether or not PYTHONPATH names it; the
    rest of PYTHONPATH is kept behind it."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "csilab.cli", "theory", "--gain", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ,
                 PYTHONPATH=os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0
    assert "0.7500" in proc.stdout


def test_analyze_reports_delay_fallback(tmp_path, capsys):
    # independent beams: no cross-covariance peak, so the delay falls back
    # to 0 and the summary says so
    trace = tmp_path / "coherent.cstf"
    write_stream(coherent_traces(AcquisitionConfig(num_sets=24, rng_seed=6)), trace)
    assert run("analyze", str(trace), "--out", str(tmp_path / "rep")) == 0
    txt = capsys.readouterr().out
    assert "delay estimate: 0.000 ns (no significant peak; uncompensated)\n" in txt


def test_analyze_of_independent_beams_is_inconclusive(tmp_path, capsys):
    # V = -0.067 +/- 3.1 at sigma_count 1.0 with 15 of 24 sets degenerate is
    # no evidence either way; the lines around the verdict keep their format
    trace = tmp_path / "coherent.cstf"
    write_stream(coherent_traces(AcquisitionConfig(num_sets=24, rng_seed=6)), trace)
    assert run("analyze", str(trace), "--out", str(tmp_path / "rep")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "sets: 24 (15 degenerate)",
        "band: 0.50-15.00 MHz",
        "delay estimate: 0.000 ns (no significant peak; uncompensated)",
        "V = -0.067421 +/- 3.145356 (set-to-set std)",
        "standard error 1.048452, sigma_count = 1.0",
        "verdict: INCONCLUSIVE",
        "spectral test: lhs = 293665, rhs = 0, classical (agrees: NO)",
        "squeezing: max 0.59 dB below SQL, bandwidth 18.27 MHz",
    ]


@pytest.mark.parametrize("v_mean, sigma_count, sets, degenerate, fallback, verdict", [
    (0.98, 35.9, 60, 0, False, "CSI VIOLATED"),
    (1.02, 10.0, 60, 0, False, "CSI NOT VIOLATED"),
    (0.98, 3.0, 60, 30, False, "CSI VIOLATED"),
    (-0.36, 4.0, 60, 0, False, "INCONCLUSIVE"),
    (0.0, 4.0, 60, 0, False, "INCONCLUSIVE"),
    (0.98, 2.9, 60, 0, False, "INCONCLUSIVE"),
    (1.02, 2.9, 60, 0, False, "INCONCLUSIVE"),
    (0.98, 35.9, 60, 31, False, "INCONCLUSIVE"),
    (1.05, 68.0, 60, 0, True, "INCONCLUSIVE"),
    # 29 and 30 kept sets, on either side of VERDICT_MIN_SETS
    (0.98, 35.9, 29, 0, False, "INCONCLUSIVE"),
    (0.98, 35.9, 40, 11, False, "INCONCLUSIVE"),
    (0.98, 35.9, 30, 0, False, "CSI VIOLATED"),
    (1.02, 10.0, 40, 10, False, "CSI NOT VIOLATED"),
])
def test_verdict_needs_positive_v_significance_most_sets_and_a_delay(
        v_mean, sigma_count, sets, degenerate, fallback, verdict):
    stats = dict(v_mean=v_mean, sigma_count=sigma_count, num_degenerate=degenerate,
                 violated=v_mean < 1.0, delay_fallback=fallback)
    assert cli._verdict(stats, sets) == verdict


def test_two_sets_give_no_verdict(tmp_path, capsys):
    """Two sets put V 14.9 standard errors below 1, but a standard error
    from two values means nothing: the report gives no verdict."""
    assert run("report", "--config", "G10", "--sets", "2", "--seed", "1",
               "--out", str(tmp_path / "rep")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "standard error 0.001188, sigma_count = 14.9" in lines
    assert "verdict: INCONCLUSIVE" in lines


def test_loud_laser_without_a_delay_is_inconclusive(tmp_path, capsys):
    """Loud low-frequency technical noise hides the delay peak, so V is
    taken uncompensated: whatever side of 1 it falls on, no verdict."""
    cfg = tmp_path / "loud.ini"
    cfg.write_text("[scenario]\npreset = G10\n[model]\ntechnical_level = 200\n")
    assert run("report", "--config", str(cfg), "--sets", "32", "--seed", "1",
               "--out", str(tmp_path / "rep")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "delay estimate: 0.000 ns (no significant peak; uncompensated)" in lines
    assert "verdict: INCONCLUSIVE" in lines


@pytest.mark.parametrize("name", preset_names())
def test_no_preset_falls_back(name):
    """Every preset's delay peak stands out at its own set count and seed."""
    sc = preset(name)
    assert not estimators.Spectra(synthesize_stream(sc.model, sc.acquisition)).delay_fallback


def test_analyze_measured_delay_has_no_fallback_note(tmp_path, g10_file, capsys):
    assert run("analyze", str(g10_file), "--out", str(tmp_path / "rep")) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("delay estimate:"))
    assert line.endswith(" ns")


def race(write, payloads, rounds=10):
    """Run write(payload) for every payload at once, rounds times; return errors."""
    errors = []

    def worker(payload, barrier):
        barrier.wait()
        try:
            write(payload)
        except Exception as exc:  # collected: a thread cannot fail the test
            errors.append(exc)

    for _ in range(rounds):
        barrier = threading.Barrier(len(payloads))
        threads = [threading.Thread(target=worker, args=(p, barrier)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return errors


@pytest.mark.parametrize("rows, cols", [
    (300, 4), (1, 1), (0, 2), (cli._CSV_ROWS - 1, 4), (cli._CSV_ROWS, 4),
    (cli._CSV_ROWS + 1, 4), (2 * cli._CSV_ROWS + 1, 3),
])
def test_csv_bytes_match_savetxt(tmp_path, rows, cols):
    """_write_csv formats the table _CSV_ROWS rows per operation; the bytes
    are np.savetxt's, signed zeros, exponents, nan and inf included, at
    every row count around a chunk boundary."""
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 31, (rows, cols))
    table.ravel()[:4] = [0.0, -0.0, np.nan, -np.inf][: table.size]
    names = [f"c{k}" for k in range(cols)]
    _write_csv(tmp_path / "fast.csv", dict(zip(names, table.T)))
    with open(tmp_path / "savetxt.csv", "w") as fh:
        np.savetxt(fh, table.reshape(rows, cols), delimiter=",", fmt="%.9e", comments="",
                   header=",".join(names))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_concurrent_text_writers_leave_one_complete_file(tmp_path):
    path = tmp_path / "summary.txt"
    texts = ["a" * 400_000, "b" * 300_000]
    assert race(lambda text: _write_text(path, text), texts) == []
    assert path.read_text() in texts
    assert os.listdir(tmp_path) == ["summary.txt"]


def test_concurrent_csv_writers_leave_one_complete_file(tmp_path):
    path = tmp_path / "vsweep.csv"
    tables = [{"x": np.arange(20_000.0)}, {"x": -np.arange(30_000.0)}]
    assert race(lambda cols: _write_csv(path, cols), tables) == []
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert any(np.array_equal(back, cols["x"]) for cols in tables)
    assert os.listdir(tmp_path) == ["vsweep.csv"]


def test_failed_write_removes_temporary_and_keeps_target(tmp_path):
    path = tmp_path / "summary.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer died")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["summary.txt"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_env(**extra):
    """Environment of a fresh interpreter that imports csilab from this tree."""
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


IMPORT_HYGIENE = """
import os, sys
import csilab.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy imported"
import csilab
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
csilab.preset("G10")
out = sys.argv[1]
before = set(sys.modules)
for argv in (["simulate", "--config", "G10", "--sets", "4", "--out", os.path.join(out, "t.cstf")],
             ["report", "--config", "G10", "--sets", "4", "--out", os.path.join(out, "r")]):
    assert csilab.cli.main(argv) == 0, argv
print(sorted(set(sys.modules) - before))
"""


def test_commands_import_no_module(tmp_path):
    """csilab.cli and csilab import numpy, neither scipy nor numpy.ma, and
    simulate and report import nothing.

    A module first imported inside a command is paid for in its run time
    by every process that forks after set-up; numpy loads numpy.fft,
    numpy.random and numpy.ma lazily, and argparse imports locale on first
    use.  A fresh interpreter is used because this one has imported them.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


TRACED_REPORT = """
import json, sys
import numpy
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer(run_id="guard")
tracer.install(numpy.fft)
import csilab.cli
rc = csilab.cli.main(["report", "--config", "G10", "--sets", "4", "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "spans": tracer.spans, "counters": tracer.counters}))
"""


def test_benchmark_tracer_runs_a_report(tmp_path):
    """The benchmark's span recorder still installs on the package.

    It patches every public function of the modules it names, csilab.dsp
    among them, so a refactor that drops or renames one of those modules
    fails here and not only when the benchmark runs.  The benchmark's
    files are only read: no bytecode is written next to them.
    """
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_REPORT, os.path.join(ROOT, "benchmarks"),
         str(tmp_path / "r")],
        capture_output=True, text=True, env=_fresh_env(PYTHONDONTWRITEBYTECODE="1"),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["rc"] == 0
    names = {span[0] for span in record["spans"]}
    assert {"estimators.filtered_violation", "estimators.cutoff_sweep"} <= names
    assert not [span for span in record["spans"] if span[5] is not None]
    # each unit of UNIT_SETS sets transforms its 4 channels, then its 2 beams
    assert record["counters"]["fft.rfft.calls"] == 6 * -(-4 // synth.UNIT_SETS)


SAMPLES = 2048  # per set in the memory tests; 256 sets of codes are 4.2 MB


def _peak(*argv) -> int:
    """tracemalloc peak of one command, in bytes."""
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def short_sets(tmp_path, monkeypatch):
    """A G10 scenario of SAMPLES-sample sets, run single-threaded and warmed up."""
    monkeypatch.setenv("CSILAB_THREADS", "1")
    cfg = tmp_path / "short.ini"
    cfg.write_text(f"[scenario]\npreset = G10\n[acquisition]\nsamples_per_set = {SAMPLES}\n")
    run("report", "--config", str(cfg), "--sets", "4", "--out", str(tmp_path / "warm"))
    return cfg


def test_simulate_memory_does_not_grow_with_the_set_count(tmp_path, short_sets, capsys):
    """simulate streams 16-set blocks into the container.  Bounds, fixed
    beforehand: 256 sets peak less than 5 % of their codes array above 32
    sets, and both peaks stay below that array (4.2 MB), which the
    whole-array path held."""
    peaks = {sets: _peak("simulate", "--config", str(short_sets), "--sets", str(sets),
                         "--out", str(tmp_path / f"{sets}.cstf"))
             for sets in (32, 256)}
    codes = 256 * 4 * SAMPLES * 2
    assert peaks[256] - peaks[32] < 0.05 * codes, peaks
    assert max(peaks.values()) < codes, peaks


def test_second_thread_adds_one_scratch_set(tmp_path, monkeypatch, capsys):
    """Each synthesis thread keeps one scratch set: the two complex normal
    draws per bin of the 25 % longer grid, one complex spectrum, the
    parent row as 2 * bins floats and two n-sample noise rows.  A second
    thread may raise the peak of simulate by that set, fixed from n before
    measuring, plus 32 KiB: the pool's thread, queue and futures, and the
    about 12 KB by which the peak of one run differs from the next."""
    n = 10000  # G10's samples per set
    bins = (n + 2 * math.ceil(n / 8)) // 2 + 1
    scratch = 2 * bins * 16 + bins * 16 + 2 * bins * 8 + 2 * n * 8  # 560 064 B
    peaks = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CSILAB_THREADS", threads)
        argv = ("simulate", "--config", "G10", "--sets", "32",
                "--out", str(tmp_path / f"{threads}.cstf"))
        run(*argv)  # leave first-call set-up out
        peaks[threads] = min(_peak(*argv) for _ in range(3))
    assert peaks["2"] - peaks["1"] <= scratch + 32 * 1024, (peaks, scratch)


def test_second_build_thread_adds_one_unit_of_scratch(tmp_path, monkeypatch, capsys):
    """A Spectra build runs on the calling thread with one unit's scratch,
    so CSILAB_THREADS=2 may raise the peak of analyze by no unit: by at
    most the 32 KiB spread of one peak against the next, well below the
    1.6 MB of one unit (4 complex rows of the rfft grid and one n-sample
    float row per set, 4 sets per unit) that a second build thread would
    add."""
    traces = tmp_path / "t.cstf"
    assert run("simulate", "--config", "G10", "--sets", "32", "--out", str(traces)) == 0
    peaks = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CSILAB_THREADS", threads)
        argv = ("analyze", str(traces), "--out", str(tmp_path / f"a{threads}"))
        run(*argv)  # leave first-call set-up out
        peaks[threads] = min(_peak(*argv) for _ in range(3))
    assert peaks["2"] - peaks["1"] <= 32 * 1024, peaks


def test_analyze_memory_does_not_grow_by_a_row_per_set(tmp_path, short_sets, capsys):
    """analyze builds its Spectra from the container's blocks, reading them
    twice, and stores per set three floats for its one filter.  Between 32
    and 256 sets its peak may grow by those floats plus 64 KiB, fixed
    beforehand for the spread of one peak against the next; keeping one
    8 B real row per set, over the 298 bins the bandpass reaches, would
    add 534 KB."""
    traces = {}
    for sets in (32, 256):
        traces[sets] = tmp_path / f"{sets}.cstf"
        assert run("simulate", "--config", str(short_sets), "--sets", str(sets),
                   "--out", str(traces[sets])) == 0
    peaks = {sets: _peak("analyze", str(path), "--out", str(tmp_path / f"a{sets}"))
             for sets, path in traces.items()}
    assert peaks[256] - peaks[32] < (256 - 32) * 3 * 1 * 8 + 64 * 1024, peaks


def test_report_memory_does_not_grow_by_a_row_per_set(tmp_path, short_sets, capsys):
    """report builds its Spectra for the scenario's bandpass and its sweep,
    and per set stores three floats for each of those filters.  Between 32
    and 256 sets its peak must grow by less than that, plus 64 KiB fixed
    beforehand for the spread of one peak against the next.  Keeping each
    set's rows up to the 298 bins the filters reach, 32 B per bin and 8 B
    more for a ramped copy, would grow it by about 2.7 MB."""
    sc = cli._resolve_scenario(str(short_sets))
    a = sc.analysis.bandpass
    filters = set([a, *(dataclasses.replace(a, f_hi=c) for c in cli._default_cutoffs(a))])
    peaks = {sets: _peak("report", "--config", str(short_sets), "--sets", str(sets),
                         "--out", str(tmp_path / f"r{sets}"))
             for sets in (32, 256)}
    assert peaks[256] - peaks[32] < (256 - 32) * 3 * len(filters) * 8 + 64 * 1024, (
        peaks, len(filters))
