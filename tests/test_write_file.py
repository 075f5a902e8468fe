"""Every file the package writes goes through ``tensor._write_file``: a
save rewrites its target in place and truncates it to the new length, and
one that raises while writing leaves an empty file."""

import errno
import os
import re
from pathlib import Path

import numpy as np
import pytest

from bitquant import (
    MalformedHeaderError,
    SyntheticSpec,
    generate,
    load_packed,
    load_tensor,
    pack_quantization,
    quantize_greedy,
    quantize_ls1,
    save_packed,
    save_tensor,
)
from bitquant.cli import main


def _normal(n, seed=0):
    return generate(SyntheticSpec("normal", n, seed))


def _bqt(n, k):
    x = _normal(n)
    return pack_quantization(quantize_greedy(x, k) if k > 1 else quantize_ls1(x))


# name -> (suffix, save, long object, short object)
_SAVES = {
    "fqt": (".fqt", save_tensor, _normal(5000), _normal(100, seed=1)),
    "fqt-matrix": (".fqt", save_tensor, _normal(600).reshape(20, 30), _normal(12).reshape(3, 4)),
    "csv": (".csv", save_tensor, _normal(5000), _normal(100, seed=1)),
    "bqt": (".bqt", save_packed, _bqt(1000, 8), _bqt(100, 1)),
}


@pytest.mark.parametrize("name", sorted(_SAVES))
def test_a_rewrite_equals_a_fresh_write(tmp_path, name):
    suffix, save, long, short = _SAVES[name]
    target, fresh = tmp_path / f"target{suffix}", tmp_path / f"fresh{suffix}"
    save(long, target)
    long_size = target.stat().st_size
    save(short, target)
    save(short, fresh)
    assert target.stat().st_size < long_size
    assert target.read_bytes() == fresh.read_bytes()


def _cli_inputs(tmp_path):
    save_tensor(_normal(5000), tmp_path / "big.fqt")
    save_tensor(_normal(1000, seed=1), tmp_path / "x.fqt")
    save_tensor(_normal(1200, seed=2).reshape(40, 30), tmp_path / "wbig.fqt")
    save_tensor(_normal(48, seed=3).reshape(8, 6), tmp_path / "wsmall.fqt")


# name -> (long command, short command); {in} is the input directory and
# {out} the output directory.  Every output of the short command is smaller
# than the long command's output of the same name.
_COMMANDS = {
    "gen-fqt": (
        "gen --dist normal --shape 70000 --out {out}/g.fqt",
        "gen --dist normal --shape 1000 --out {out}/g.fqt",
    ),
    "gen-csv": (
        "gen --dist laplace(1) --shape 5000 --out {out}/g.csv",
        "gen --dist laplace(1) --shape 100 --out {out}/g.csv",
    ),
    "quantize": (
        "quantize --in {in}/x.fqt --method greedy-8 --out {out}/q.bqt",
        "quantize --in {in}/x.fqt --method ls1 --out {out}/q.bqt",
    ),
    "quantize-recon-fqt": (
        "quantize --in {in}/big.fqt --method greedy-8 --out {out}/q.bqt --recon {out}/r.fqt",
        "quantize --in {in}/x.fqt --method ls1 --out {out}/q.bqt --recon {out}/r.fqt",
    ),
    "quantize-recon-csv": (
        "quantize --in {in}/big.fqt --method greedy-8 --out {out}/q.bqt --recon {out}/r.csv",
        "quantize --in {in}/x.fqt --method ls1 --out {out}/q.bqt --recon {out}/r.csv",
    ),
    "analyze-csv": (
        "analyze --spec normal:200 --methods ls1,ls2,greedy-2 --seeds 3 --out {out}/a.csv",
        "analyze --spec normal:200 --methods ls1 --out {out}/a.csv",
    ),
    "analyze-json": (
        "analyze --spec normal:200 --methods ls1,ls2,greedy-2 --seeds 3 --out {out}/a.json",
        "analyze --spec normal:200 --methods ls1 --out {out}/a.json",
    ),
    "curve": (
        "curve --in {in}/x.fqt --grid 200 --out {out}/c.csv",
        "curve --dist normal --grid 10 --out {out}/c.csv",
    ),
    "energy": (
        "energy --in {in}/wbig.fqt --top 8 --out {out}/e.json",
        "energy --in {in}/wsmall.fqt --top 1 --out {out}/e.json",
    ),
}


def _run(capsys, command, inputs, out):
    code = main(command.format(**{"in": inputs, "out": out}).split())
    capsys.readouterr()
    assert code == 0, command


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_a_cli_rewrite_equals_a_fresh_write(tmp_path, capsys, name):
    long, short = _COMMANDS[name]
    inputs, target, fresh = (tmp_path / d for d in ("in", "target", "fresh"))
    for d in (inputs, target, fresh):
        d.mkdir()
    _cli_inputs(inputs)
    _run(capsys, long, inputs, target)
    long_sizes = {p.name: p.stat().st_size for p in target.iterdir()}
    _run(capsys, short, inputs, target)
    _run(capsys, short, inputs, fresh)
    assert sorted(p.name for p in fresh.iterdir()) == sorted(long_sizes)
    for p in fresh.iterdir():
        assert p.stat().st_size < long_sizes[p.name], p.name
        assert (target / p.name).read_bytes() == p.read_bytes(), p.name


def _partial_writes(monkeypatch, chunk, fail_after=None):
    """Make ``os.write`` write at most ``chunk`` bytes a call, and raise
    ENOSPC on the call after ``fail_after`` calls."""
    real, calls = os.write, []

    def write(fd, data):
        if fail_after is not None and len(calls) == fail_after:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        calls.append(fd)
        return real(fd, data[:chunk])

    monkeypatch.setattr(os, "write", write)
    return calls


@pytest.mark.parametrize("name", sorted(_SAVES))
def test_partial_writes_are_continued(tmp_path, monkeypatch, name):
    suffix, save, long, short = _SAVES[name]
    target, fresh = tmp_path / f"target{suffix}", tmp_path / f"fresh{suffix}"
    save(long, target)
    save(short, fresh)
    with monkeypatch.context() as m:
        calls = _partial_writes(m, chunk=7)
        save(short, target)
    assert len(calls) == -(-fresh.stat().st_size // 7)
    assert target.read_bytes() == fresh.read_bytes()


_LOADS = {".fqt": load_tensor, ".csv": load_tensor, ".bqt": load_packed}


@pytest.mark.parametrize("name", sorted(_SAVES))
def test_a_failed_rewrite_leaves_an_empty_file_that_loads_refuse(tmp_path, monkeypatch, name):
    suffix, save, long, short = _SAVES[name]
    target = tmp_path / f"target{suffix}"
    save(long, target)
    with monkeypatch.context() as m:
        calls = _partial_writes(m, chunk=5, fail_after=1)
        with pytest.raises(OSError) as info:
            save(short, target)
    assert info.value.errno == errno.ENOSPC
    assert len(calls) == 1
    assert target.stat().st_size == 0
    with pytest.raises(MalformedHeaderError):
        _LOADS[suffix](target)


def test_a_failed_cli_write_exits_2_and_leaves_an_empty_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.csv"
    argv = ["gen", "--dist", "normal", "--shape", "5000", "--out", str(out)]
    assert main(argv) == 0
    with monkeypatch.context() as m:
        _partial_writes(m, chunk=5, fail_after=1)
        assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.stat().st_size == 0


def test_saves_to_a_character_device():
    # A character device is written but not truncated: ftruncate would fail.
    x = _normal(100)
    save_packed(_bqt(100, 2), os.devnull)
    save_tensor(x, os.devnull, "csv")
    save_tensor(x, os.devnull, "fqt")


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
def test_a_new_file_takes_the_umask_and_a_rewrite_keeps_the_mode(tmp_path):
    x = _normal(100)
    old = os.umask(0o002)
    try:
        save_tensor(x, tmp_path / "new.fqt")
    finally:
        os.umask(old)
    assert (tmp_path / "new.fqt").stat().st_mode & 0o777 == 0o664
    kept = tmp_path / "kept.csv"
    kept.write_text("1,2,3\n")
    kept.chmod(0o604)
    save_tensor(x, kept)
    assert kept.stat().st_mode & 0o777 == 0o604
    np.testing.assert_array_equal(load_tensor(kept), x)


def test_the_package_opens_files_for_writing_in_one_place():
    src = Path(__file__).resolve().parent.parent / "src" / "bitquant"
    text = {p.name: p.read_text() for p in src.glob("*.py")}
    opens = [(name, m.group()) for name, t in text.items()
             for m in re.finditer(r"\b(?:os\.)?open\(|\bFileIO\(|\.write_(?:bytes|text)\(", t)]
    assert opens == [("tensor.py", "os.open("), ("tensor.py", "FileIO(")]
    # The one FileIO is _read_file's, in FileIO's default read-only mode.
    assert "with io.FileIO(os.fspath(path)) as f:" in text["tensor.py"]
