import contextlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import divkit
from divkit import (
    DiscreteDensity,
    DivergenceSpec,
    DomainError,
    GaussianDensity,
    bracket_integrals,
    gaussian_grid,
    power_xi,
    write_density_csv,
)
from divkit.checks import random_discrete_density
from divkit import cli, densities, scores
from divkit.cli import main
from divkit.scores import FAMILIES


@pytest.fixture
def density_files(tmp_path):
    g_path, f_path = tmp_path / "q.csv", tmp_path / "p.csv"
    write_density_csv(g_path, DiscreteDensity([0.5, 0.5]))
    write_density_csv(f_path, DiscreteDensity([0.8, 0.2]))
    return str(g_path), str(f_path)


def run(args):
    return main(args)


def in_fresh_interpreter(code: str) -> str:
    """The standard output of ``code`` run by a new interpreter on this divkit."""
    src = str(Path(divkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy's import time and shared
    # libraries would otherwise land on every command
    loaded = in_fresh_interpreter("import sys, divkit.cli; print('scipy' in sys.modules)")
    assert loaded.strip() == "False"


def test_importing_the_cli_does_not_load_hashlib():
    # the parse cache compares a file's bytes and needs no digest: hashlib's
    # import would land on every command's start-up.  numpy 1.x loads it
    # itself (numpy.random imports secrets), so the check is what divkit adds.
    added = in_fresh_interpreter(
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import divkit.cli\n"
        "print(sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))\n")
    assert added.strip() == "[]"


def test_the_parser_is_built_on_the_first_call_not_at_import():
    # the benchmark's setup_s times a fresh interpreter's import of the CLI
    counts = in_fresh_interpreter(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import divkit.cli\n"
        "at_import = len(built)\n"
        "divkit.cli.build_parser()\n"
        "first = len(built)\n"
        "divkit.cli.build_parser()\n"
        "print(at_import, first, len(built))\n")
    at_import, first, second = map(int, counts.split())
    assert at_import == 0
    assert first > 0   # the counter sees the parser and its subparsers
    assert second == first


def test_repeated_calls_match_a_parser_built_for_each_command(density_files, tmp_path,
                                                              capsys, monkeypatch):
    g, f = density_files
    samples = tmp_path / "s.csv"
    write_samples(samples, np.random.default_rng(5).standard_normal(200))
    sweep = ["sweep", "--epsilons", "0,0.2", "--outlier", "8", "--n", "200",
             "--seed", "3", "--format", "json"]
    two_specs = ["family=jhhb,zeta=0,gamma=0.5", "family=fdpd,phi=identity,gamma=0"]
    commands = [
        ["compute", "--family", "fdpd", "--phi", "power:0.5", "--gamma", "1",
         "--g", g, "--f", f],
        ["verify", "--theorem", "jhhb-representation", "--zeta", "0.5", "--gamma", "1",
         "--trials", "50", "--seed", "7"],
        ["estimate", "--family", "jhhb", "--zeta", "0", "--gamma", "0.5",
         "--samples", str(samples), "--seed", "5"],
        sweep + ["--spec", two_specs[0], "--spec", two_specs[1]],
        sweep + ["--spec", two_specs[1]],
        ["verify", "--theorem", "uv-consistency", "--gamma", "1"],  # no --seed
        ["--help"],
    ]

    def outcomes():
        results = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as stop:
                code = ("SystemExit", stop.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli._parser.__wrapped__)
    fresh = outcomes()
    for command, one, other in zip(commands, shared, fresh):
        assert one == other, command
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 3, ("SystemExit", 0)]
    assert "--seed" in shared[5][2] and shared[6][1].startswith("usage: divkit")
    # an appended flag starts from the empty default on every call
    assert json.loads(shared[3][1])["config"]["spec"] == two_specs
    assert json.loads(shared[4][1])["config"]["spec"] == two_specs[1:]
    assert main(sweep) == 3


def test_repeated_calls_on_the_same_files_stop_parsing_them(density_files, tmp_path,
                                                           capsys, monkeypatch):
    # a first read parses a file and keeps it; later reads compare its bytes
    g, f = density_files
    samples = tmp_path / "s.csv"
    write_samples(samples, np.random.default_rng(5).standard_normal(200))
    commands = [
        ["compute", "--family", "fdpd", "--phi", "power:0.5", "--gamma", "1",
         "--g", g, "--f", f],
        ["estimate", "--family", "jhhb", "--zeta", "0", "--gamma", "0.5",
         "--samples", str(samples), "--seed", "5"],
    ]
    loadtxt, parsed = np.loadtxt, []

    def recording(path, *args, **kwargs):
        parsed.append(path)
        return loadtxt(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    outputs, parses = [], []
    for _ in range(3):
        for argv in commands:
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        parses.append(sorted(parsed))
        parsed.clear()
    assert parses[0] == sorted([g, f, str(samples)])
    assert parses[1] == [] and parses[2] == []
    assert outputs == outputs[:2] * 3


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_dpd_divergence(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "report.json"
    code = run(["compute", "--family", "holder", "--eta", "dpd", "--gamma", "1",
                "--g", g, "--f", f, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["divergence"] == pytest.approx(0.18, abs=1e-12)
    assert payload["score"] == pytest.approx(-0.32, abs=1e-12)
    assert payload["brackets"]["X"] == pytest.approx(0.5)
    assert payload["brackets"]["Y"] == pytest.approx(0.68)


def test_compute_jhhb_zeta_zero(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "report.json"
    code = run(["compute", "--family", "jhhb", "--zeta", "0", "--gamma", "1",
                "--g", g, "--f", f, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["divergence"] == pytest.approx(math.log(1.36), abs=1e-12)


def test_compute_is_byte_identical(density_files, tmp_path):
    g, f = density_files
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--family", "fdpd", "--phi", "power:0.5", "--gamma", "1",
            "--g", g, "--f", f]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_grid_densities(tmp_path):
    g_path, f_path = tmp_path / "g.csv", tmp_path / "f.csv"
    write_density_csv(g_path, gaussian_grid(GaussianDensity(0, 1), x_min=-12,
                                            x_max=12, points=1024))
    write_density_csv(f_path, gaussian_grid(GaussianDensity(1, 1), x_min=-12,
                                            x_max=12, points=1024))
    out = tmp_path / "r.json"
    code = run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g_path), "--f", str(f_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    expected = (1.0 - math.exp(-0.25)) / math.sqrt(math.pi)
    assert payload["divergence"] == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("kind, plain, header", [
    ("grid", "x,value\n", "\n  \nx,value\n"),
    ("grid", "x,value\n", '"x","value"\n'),
    ("grid", "x,value\n", ' "X" , value\n'),
    ("discrete", "index,mass\n", '\n"index","mass"\n'),
], ids=["grid-blank-first-rows", "grid-quoted", "grid-spaced", "discrete-blank-quoted"])
def test_compute_sniffs_the_header_as_the_readers_take_it(tmp_path, capsys, kind, plain,
                                                          header):
    # the density kind comes from the first non-blank row, cells stripped of
    # quotes and whitespace; the output equals the plain-header file's
    g_body, f_body = {"grid": ("-1,0.25\n0,0.5\n1,0.25\n", "-1,0.2\n0,0.6\n1,0.2\n"),
                      "discrete": ("0,0.5\n1,0.25\n2,0.25\n", "0,0.4\n1,0.4\n2,0.2\n")}[kind]
    g, f = tmp_path / "g.csv", tmp_path / "f.csv"
    f.write_text(plain + f_body)
    args = ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
            "--g", str(g), "--f", str(f)]
    outputs = []
    for text in (plain, header):
        g.write_text(text + g_body)
        assert run(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]


def test_compute_without_a_known_header_exits_3(tmp_path, capsys):
    g = tmp_path / "g.csv"
    g.write_text("\n0,0.5\n1,0.5\n")
    assert run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g), "--f", str(g)]) == 3
    assert "expected header 'x,value' or 'index,mass'" in capsys.readouterr().err


@pytest.mark.parametrize("above", ["# a grid\n", "# a, grid\n\n", "x\n", 'value,x\n  \n'],
                         ids=["comment", "two-cell-comment", "one-cell-x", "other-order"])
@pytest.mark.parametrize("command", [
    ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1", "--g", "{g}",
     "--f", "{f}"],
    ["verify", "--theorem", "equality-conditions", "--gamma", "1", "--f", "{g}",
     "--seed", "1"],
], ids=["compute", "verify-equality"])
def test_a_kind_row_below_other_header_rows_reads_as_the_plain_file(tmp_path, capsys,
                                                                    above, command):
    # the readers take every row above the first data row as a header, and
    # the density kind comes from the first of them that names one
    g, f = tmp_path / "g.csv", tmp_path / "f.csv"
    f.write_text("x,value\n-1,0.2\n0,0.6\n1,0.2\n")
    args = [arg.format(g=g, f=f) for arg in command]
    outputs = []
    for text in ("", above):
        g.write_text(text + "x,value\n-1,0.25\n0,0.5\n1,0.25\n")
        assert run(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("text", [
    "# a grid\n0,0.5\n1,0.5\n",
    "# a, grid\nz,value\n0,0.5\n1,0.5\n",
    "x\n\nvalue,x\n0,0.5\n1,0.5\n",
    "0,0.5\nx,value\n1,0.5\n",
], ids=["comment", "other-names", "one-cell-and-other-order", "kind-row-below-data"])
def test_header_rows_that_name_no_kind_exit_3(tmp_path, capsys, text):
    g = tmp_path / "g.csv"
    g.write_text(text)
    assert run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g), "--f", str(g)]) == 3
    assert capsys.readouterr().err == (
        f"divkit: {str(g)!r}: expected header 'x,value' or 'index,mass'\n")


def test_a_malformed_file_is_opened_once_on_its_error_path(tmp_path, capsys, monkeypatch):
    # in Python, by the one read of its bytes, which the kind lookup, the
    # header scan and the row-by-row parse all read; numpy's C reader opens
    # the path itself, and fails on the whitespace-only row
    g = tmp_path / "g.csv"
    g.write_text("# a grid\nx,value\n0,1\n\n \n1,abc\n")
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g), "--f", str(g)]) == 3
    assert capsys.readouterr().err == (
        f"divkit: {str(g)!r}: could not convert string 'abc' to float64 at line 6, column 2\n")
    assert opened.count(str(g)) == 1


_OPENS = []  # while a list is pushed here, the audit hook appends each opened path to it


def _audit_opens(event, args):
    if event == "open" and _OPENS:
        _OPENS[-1].append(args[0])


@contextlib.contextmanager
def opens_under(directory):
    """Every open of a file under ``directory`` inside the block, by any
    code, numpy's included.  An audit hook cannot be removed, so one is
    added on the first call and stays idle outside the block."""
    if not hasattr(opens_under, "hooked"):
        sys.addaudithook(_audit_opens)
        opens_under.hooked = True
    opened = []
    _OPENS.append(opened)
    try:
        yield opened
    finally:
        _OPENS.pop()
        opened[:] = [path for path in opened
                     if isinstance(path, (str, os.PathLike))
                     and Path(path).is_relative_to(directory)]


@pytest.mark.parametrize("command, cold, repeat", [
    (["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
      "--g", "{grid}", "--f", "{grid}"], 4, 2),
    (["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
      "--samples", "{samples}", "--seed", "0"], 3, 1),
], ids=["compute-one-grid", "estimate"])
def test_each_input_file_is_read_once_per_command(tmp_path, capsys, command, cold, repeat):
    # cold: the one read of the file's bytes, numpy's read of its data rows
    # by path and the check that the file still holds those bytes, then the
    # read of the second file (the same one here), which the kept parse
    # serves; repeated: the read of each file's bytes alone
    grid, samples = tmp_path / "g.csv", tmp_path / "s.csv"
    write_density_csv(grid, gaussian_grid(GaussianDensity(0.0, 1.0), points=20_000))
    write_samples(samples, np.random.default_rng(31).normal(0.5, 1.0, 1000))
    args = [arg.format(grid=grid, samples=samples) for arg in command]
    for expected in (cold, repeat):
        with opens_under(tmp_path) as opened:
            assert run(args) == 0
        assert len(opened) == expected, opened
    capsys.readouterr()


def test_compute_on_a_grid_with_a_nan_x_exits_3_naming_it(tmp_path, capsys):
    g = tmp_path / "g.csv"
    g.write_text("x,value\n0,0.2\nnan,0.5\n2,0.3\n")
    assert run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g), "--f", str(g)]) == 3
    assert capsys.readouterr().err.startswith(f"divkit: {str(g)!r}: x must be finite")


@pytest.mark.parametrize("command, text", [
    (["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
      "--g", "{bad}", "--f", "{bad}"], b"x,value\n0,1\n1,\xff\n"),
    (["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
      "--samples", "{bad}"], b"x\n0.5\n\xff\n"),
    (["compute", "--family", "fdpd", "--phi", "file:{bad}", "--gamma", "1",
      "--g", "{good}", "--f", "{good}"], b"z,value\n0,0\n1,\xff\n"),
], ids=["compute", "estimate", "phi-table"])
def test_a_file_that_is_not_utf8_exits_3_naming_it(tmp_path, capsys, density_files,
                                                    command, text):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    assert run([arg.format(bad=bad, good=density_files[0]) for arg in command]) == 3
    err = capsys.readouterr().err
    # the byte reads as its escape, a cell that is not a number
    assert err.startswith(f"divkit: {str(bad)!r}: ") and "xff" in err and "at line 3" in err


def test_a_phi_table_with_a_nan_cell_exits_3_naming_the_table(tmp_path, capsys,
                                                             density_files):
    table = tmp_path / "phi.csv"
    table.write_text("z,value\n0,0\nnan,1\n2,2\n3,3\n")
    g, f = density_files
    assert run(["compute", "--family", "fdpd", "--phi", f"file:{table}", "--gamma", "1",
                "--g", g, "--f", f]) == 3
    assert capsys.readouterr().err == (
        f"divkit: generator table {str(table)!r} must have finite z and value\n")


@contextlib.contextmanager
def piped(*paths):
    """For each file, a path that reads its bytes from a pipe, as a shell's
    ``<(cat file)`` gives: a second open of it reads only what is left."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")
    ends, writers = [], []
    for path in paths:
        read_end, write_end = os.pipe()

        def feed(write_end=write_end, data=Path(path).read_bytes()):
            with os.fdopen(write_end, "wb") as handle, contextlib.suppress(BrokenPipeError):
                handle.write(data)

        ends.append(read_end)
        writers.append(threading.Thread(target=feed))
        writers[-1].start()
    try:
        yield [f"/dev/fd/{end}" for end in ends]
    finally:
        for end in ends:
            os.close(end)
        for writer in writers:
            writer.join()


def _piped_inputs(tmp_path):
    """Files of each reader, each above the 8 KiB a buffered header scan reads."""
    rng = np.random.default_rng(29)
    for name, mu in (("g", 0.0), ("f", 1.0)):
        write_density_csv(tmp_path / f"{name}.csv",
                          gaussian_grid(GaussianDensity(mu, 1.0), x_min=-12.0, x_max=13.0,
                                        points=401))
        write_density_csv(tmp_path / f"{name}-masses.csv",
                          DiscreteDensity(rng.uniform(0.05, 3.0, 500)))
    write_samples(tmp_path / "s.csv", rng.normal(0.5, 1.0, 500))
    (tmp_path / "line.csv").write_text(
        "z,value\n" + "".join(f"{z!r},{z!r}\n" for z in np.linspace(0.0, 50.0, 600).tolist()))


@pytest.mark.parametrize("command", [
    ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
     "--g", "{g}", "--f", "{f}"],
    ["compute", "--family", "jhhb", "--zeta", "0", "--gamma", "0",
     "--g", "{g-masses}", "--f", "{f-masses}"],
    ["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
     "--samples", "{s}", "--seed", "0"],
    ["compute", "--family", "fdpd", "--phi", "file:{line}", "--gamma", "0.5",
     "--g", "g.csv", "--f", "f.csv"],
], ids=["grid", "discrete", "samples", "phi-table"])
def test_a_file_given_as_a_pipe_reads_as_the_file(tmp_path, capsys, monkeypatch, command):
    _piped_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    names = [arg[arg.index("{") + 1:-1] for arg in command if "{" in arg]
    files = [f"{name}.csv" for name in names]
    assert run([arg.format_map(dict(zip(names, files))) for arg in command]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(densities, "_parsed", [])  # no parse of the files is kept
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    with piped(*files) as paths:
        monkeypatch.setattr("builtins.open", counting_open)
        assert run([arg.format_map(dict(zip(names, paths))) for arg in command]) == 0
    assert sorted(path for path in opened if path in paths) == sorted(paths)  # once each
    out = capsys.readouterr()
    for file, path in zip(files, paths):  # the reports name the paths given
        out = out._replace(out=out.out.replace(path, file))
    assert out == expected


def test_a_malformed_pipe_names_the_line_of_its_bad_cell(tmp_path, capsys, monkeypatch):
    # the header scan and the row-by-row parse both read the one copy of its bytes
    _piped_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    text = Path("g.csv").read_text().splitlines(keepends=True)
    Path("bad.csv").write_text("".join(["# a grid\n", *text[:200], "  \n", "1,abc\n",
                                        *text[200:]]))
    command = ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
               "--g", "{bad}", "--f", "f.csv"]
    assert run([arg.format(bad="bad.csv") for arg in command]) == 3
    expected = capsys.readouterr().err
    assert expected == ("divkit: 'bad.csv': could not convert string 'abc' to float64 "
                        "at line 203, column 2\n")
    with piped("bad.csv") as (path,):
        assert run([arg.format(bad=path) for arg in command]) == 3
    assert capsys.readouterr().err == expected.replace("bad.csv", path)


def test_compute_gamma_zero_reports_kl_fields(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "r.json"
    code = run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0",
                "--g", g, "--f", f, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    brackets = payload["brackets"]
    assert "L" in brackets
    assert brackets["Mg"] == brackets["X"] == brackets["Z"] == 1.0
    assert brackets["Mf"] == brackets["Y"] == 1.0


def test_compute_missing_file_exits_3(density_files):
    g, _ = density_files
    assert run(["compute", "--family", "holder", "--eta", "dpd", "--gamma", "1",
                "--g", g, "--f", "/nonexistent.csv"]) == 3


def test_compute_unknown_generator_exits_3(density_files):
    g, f = density_files
    assert run(["compute", "--family", "holder", "--eta", "nope", "--gamma", "1",
                "--g", g, "--f", f]) == 3


def test_compute_invalid_certificate_exits_2(density_files, tmp_path, capsys):
    # a tabulated eta with eta(1) = -2 fails the normalization certificate
    g, f = density_files
    table = tmp_path / "eta.csv"
    zs = np.geomspace(1e-7, 1e7, 501)
    table.write_text("z,value\n" + "\n".join(
        f"{float(z)!r},{float(-2.0 * z**2)!r}" for z in zs) + "\n")
    code = run(["compute", "--family", "holder", "--eta", f"file:{table}",
                "--gamma", "1", "--g", g, "--f", f])
    assert code == 2
    assert "eta(1) != -1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_representation_passes(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--theorem", "jhhb-representation", "--zeta", "0.5",
                "--gamma", "1", "--trials", "1000", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["worst_case"]["max_abs_error"] <= 1e-10
    assert payload["seed"] == 7


def test_theorems_are_the_reports_in_the_order_checks_defines_them():
    assert cli.THEOREMS == ("affine-invariance", "jhhb-representation", "fdps-lower-bound",
                            "uv-consistency", "equality-conditions")


@pytest.mark.parametrize("theorem, message", [
    ("fdps-lower-bound", "the lower-bound check requires gamma > 0"),
    ("uv-consistency", "the consistency check requires gamma > 0"),
    ("equality-conditions", "the equality probe requires gamma > 0"),
])
def test_verify_at_gamma_0_of_a_theorem_for_gamma_gt_0_exits_3(theorem, message, capsys):
    assert run(["verify", "--theorem", theorem, "--gamma", "0", "--trials", "3",
                "--seed", "1"]) == 3
    assert capsys.readouterr() == ("", f"divkit: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--family", "fdpd"], "--family fdpd needs --phi"),
    (["--family", "holder", "--phi", "identity"], "--family holder needs --eta"),
    (["--family", "jhhb"], "--family jhhb needs --zeta"),
    (["--family", "xi_holder", "--eta", "dpd"], "--family xi_holder needs --eta and --xi"),
], ids=["fdpd", "holder", "jhhb", "xi_holder"])
def test_compute_without_a_generator_of_its_family_exits_3(density_files, flags, message,
                                                           capsys):
    g, f = density_files
    assert run(["compute", *flags, "--gamma", "0.5", "--g", g, "--f", f]) == 3
    assert capsys.readouterr() == ("", f"divkit: {message}\n")


def test_verify_representation_without_zeta_exits_3(capsys):
    assert run(["verify", "--theorem", "jhhb-representation", "--gamma", "1",
                "--seed", "1"]) == 3
    assert capsys.readouterr().err == "divkit: jhhb-representation needs --zeta\n"


@pytest.mark.parametrize("flags", [
    ["--theorem", "uv-consistency", "--xi", "power:2"],
    ["--theorem", "jhhb-representation", "--zeta", "4"],
], ids=["uv-consistency", "jhhb-representation"])
def test_verify_passes_where_the_routes_round_large_values(flags, capsys):
    # values near 1.6e4 and 8.2e7: the two formula routes differ in their last bits
    assert run(["verify", *flags, "--gamma", "2", "--trials", "1000", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_affine_counterexample_exits_1(tmp_path):
    out = tmp_path / "aff.json"
    code = run(["verify", "--theorem", "affine-invariance", "--phi", "exp-minus-one",
                "--gamma", "1", "--trials", "50", "--seed", "11", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert payload["worst_case"]["max_relative_violation"] >= 1e-2


def test_verify_affine_power_passes(tmp_path):
    out = tmp_path / "aff.json"
    code = run(["verify", "--theorem", "affine-invariance", "--phi", "power:1",
                "--gamma", "1", "--trials", "20", "--seed", "11", "--out", str(out)])
    assert code == 0


def test_verify_lower_bound_passes(tmp_path):
    out = tmp_path / "lb.json"
    code = run(["verify", "--theorem", "fdps-lower-bound", "--phi", "identity",
                "--gamma", "1", "--trials", "500", "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["parameters"]["bound_is_fdps"] is True


def test_verify_uv_and_equality(tmp_path):
    out = tmp_path / "uv.json"
    assert run(["verify", "--theorem", "uv-consistency", "--xi", "power:0.5",
                "--gamma", "1", "--trials", "20", "--seed", "2", "--out", str(out)]) == 0
    out2 = tmp_path / "eq.json"
    assert run(["verify", "--theorem", "equality-conditions", "--phi", "log",
                "--gamma", "1", "--c", "2", "--seed", "1", "--out", str(out2)]) == 0
    payload = json.loads(out2.read_text())
    assert abs(payload["worst_case"]["D_value"]) <= 1e-10


def test_verify_equality_conditions_out_of_float_range_exits_3(tmp_path, capsys):
    # c**(1/2) = 1e150 times a mass of 1e300 overflows the scaled density
    path = tmp_path / "big.csv"
    path.write_text("index,mass\n0,1e300\n1,1\n")
    assert run(["verify", "--theorem", "equality-conditions", "--gamma", "1",
                "--c", "1e300", "--f", str(path), "--seed", "1"]) == 3
    assert capsys.readouterr().err == "divkit: masses must be finite\n"


@pytest.mark.parametrize("c, code", [("1e-320", 3), ("1e-300", 0)])
def test_verify_equality_conditions_on_a_subnormal_bracket_exits_3(capsys, c, code):
    # the default f is (0.8, 0.2): Z = 0.68 c, subnormal at c = 1e-320
    assert run(["verify", "--theorem", "equality-conditions", "--phi", "log", "--gamma", "1",
                "--c", c, "--seed", "1"]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "divkit: the equality probe needs normal brackets, "
                   "got X=6.79996e-161, Y=0.68, Z=6.79834e-321\n")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_uv_consistency_without_trials_exits_3(capsys, trials):
    assert run(["verify", "--theorem", "uv-consistency", "--gamma", "1",
                "--trials", trials, "--seed", "1"]) == 3
    assert capsys.readouterr().err == f"divkit: trials must be >= 1, got {trials}\n"


def test_verify_uv_consistency_checks_one_density_per_trial(tmp_path):
    out = tmp_path / "uv.json"
    assert run(["verify", "--theorem", "uv-consistency", "--xi", "power:0.5", "--gamma", "2",
                "--trials", "37", "--seed", "9", "--out", str(out)]) == 0
    rng = np.random.default_rng(9)
    xi = power_xi(0.5)
    selves = [bracket_integrals(g, g, 2.0) for g in
              (random_discrete_density(rng) for _ in range(37))]
    payload = json.loads(out.read_text())
    assert (payload["trials"], payload["seed"]) == (37, 9)
    assert payload["worst_case"]["max_abs_error"].hex() == max(
        abs(xi(b.X) - xi(b.Y)) for b in selves).hex()


def test_verify_affine_invariance_with_every_trial_skipped_exits_1(tmp_path):
    out = tmp_path / "affine.json"
    assert run(["verify", "--theorem", "affine-invariance", "--phi", "power:300",
                "--gamma", "1", "--trials", "5", "--representation", "gaussian",
                "--seed", "1", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["worst_case"]["skipped"] == 5
    assert payload["pass"] is False


def test_verify_requires_seed():
    assert run(["verify", "--theorem", "jhhb-representation", "--zeta", "1",
                "--gamma", "1", "--trials", "10"]) == 3


def test_verify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
    args = ["verify", "--theorem", "fdps-lower-bound", "--phi", "power:2",
            "--gamma", "0.5", "--trials", "200", "--seed", "13"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# estimate and sweep
# ---------------------------------------------------------------------------


def write_samples(path, samples):
    path.write_text("x\n" + "\n".join(repr(float(s)) for s in samples) + "\n")


def test_estimate_clean_sample(tmp_path):
    rng = np.random.default_rng(5)
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, rng.standard_normal(2000))
    out = tmp_path / "fit.json"
    code = run(["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
                "--samples", str(samples_path), "--seed", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["result"]["mu_hat"]) <= 0.1
    assert abs(payload["result"]["sigma_hat"] - 1.0) <= 0.1


@pytest.mark.parametrize("samples", [[3.0] * 40, [0.7]], ids=["all-equal", "one-sample"])
@pytest.mark.parametrize("gamma", ["0", "0.5"])
def test_estimate_degenerate_sample_exits_4(tmp_path, samples, gamma):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, samples)
    out = tmp_path / "fit.json"
    code = run(["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", gamma,
                "--samples", str(samples_path), "--out", str(out)])
    assert code == 4
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is False and result["sigma_at_floor"] is True
    assert result["mu_hat"] == pytest.approx(samples[0], abs=1e-12)
    # gamma > 0: the four descents end on the floor, and none starts again there
    assert result["optimizer_converged"] is True
    assert len(result["evaluations"]) == (0 if gamma == "0" else 4)


@pytest.mark.parametrize("phi", ["bdpd:1:1", "exp-minus-one"])
def test_estimate_exits_4_when_the_returned_descent_missed_the_tolerance(tmp_path, phi):
    # F is noise-limited on this sample at gamma = 2: log(1 + z) and
    # e**z - 1 near z = 0 lose about 9 digits, and no descent meets the
    # tolerance
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path,
                  1e4 * divkit.contaminated_sample(700, 0.1, 5.0, [3, 100000000]) - 3)
    out = tmp_path / "fit.json"
    assert run(["estimate", "--family", "fdpd", "--phi", phi, "--gamma", "2",
                "--samples", str(samples_path), "--out", str(out)]) == 4
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is False and result["optimizer_converged"] is False


def test_estimate_improper_gamma_zero_exits_2(tmp_path):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    code = run(["estimate", "--family", "fdpd", "--phi", "log", "--gamma", "0",
                "--samples", str(samples_path)])
    assert code == 2


def test_estimate_gamma_zero_mle_near_the_top_of_float_range(tmp_path):
    # the squares of the samples overflow; the MLE sigma, 1e300, does not
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [1e300, -1e300])
    out = tmp_path / "fit.json"
    assert run(["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0",
                "--samples", str(samples_path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert (result["mu_hat"], result["sigma_hat"]) == (0.0, 1e300)
    assert result["converged"] is True


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--epsilons", "0,0.2", "--outlier", "8", "--n", "400",
            "--seed", "3", "--out", str(out),
            "--spec", "family=jhhb,zeta=0,gamma=0.5",
            "--spec", "family=fdpd,phi=identity,gamma=0"]
    assert run(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,family,gamma,zeta,mu_hat,sigma_hat,bias,converged"
    assert len(lines) == 5
    assert lines[2].split(",")[3] == ""  # the likelihood row has no zeta


def test_sweep_is_byte_identical(tmp_path):
    args = ["sweep", "--epsilons", "0,0.1", "--outlier", "8", "--n", "300",
            "--seed", "9", "--spec", "family=jhhb,zeta=0,gamma=0.5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_needs_a_spec():
    assert run(["sweep", "--epsilons", "0", "--outlier", "8", "--seed", "1"]) == 3


def test_sweep_rejects_malformed_spec():
    assert run(["sweep", "--epsilons", "0", "--outlier", "8", "--seed", "1",
                "--spec", "family=jhhb"]) == 3


SWEEP_50 = ["sweep", "--epsilons", "0", "--outlier", "8", "--n", "50", "--seed", "1"]


@pytest.mark.parametrize("spec, message", [
    ("family=jhhb,zeta,gamma=0.5", "--spec entries are key=value pairs, got 'zeta'"),
    ("family=jhhb,zeta=0,gamma=0.5,bogus=1", "unknown --spec keys ['bogus']"),
    ("family=bregman,gamma=0.5", "unknown family 'bregman'"),
    ("family=xi_holder,gamma=0.5", "--family xi_holder needs --eta and --xi"),
], ids=["no-equals", "unknown-key", "unknown-family", "missing-generators"])
def test_sweep_names_what_is_wrong_with_a_spec(spec, message, capsys):
    assert run([*SWEEP_50, "--spec", spec]) == 3
    assert capsys.readouterr().err == f"divkit: {message}\n"


@pytest.mark.parametrize("epsilon, shown", [("nan", "nan"), ("inf", "inf"),
                                            ("1e300", "1e+300"), ("0.5", "0.5")])
def test_sweep_with_an_epsilon_outside_its_range_exits_3(epsilon, shown, capsys):
    # the seed key int(round(1e9 * epsilon)) takes finite epsilon only
    assert run(["sweep", "--epsilons", f"0,{epsilon}", "--outlier", "8", "--n", "50",
                "--spec", "family=fdpd,phi=identity,gamma=0.5", "--seed", "1"]) == 3
    assert capsys.readouterr() == ("", f"divkit: epsilon must lie in [0, 0.45], got {shown}\n")


def test_sweep_skips_empty_spec_entries(capsys):
    assert run([*SWEEP_50, "--spec", ",family=jhhb,, zeta=0 ,gamma=0.5,"]) == 0
    padded = capsys.readouterr().out
    assert run([*SWEEP_50, "--spec", "family=jhhb,zeta=0,gamma=0.5"]) == 0
    assert capsys.readouterr().out == padded


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("family", FAMILIES)
def test_build_spec_certifies_exactly_the_slots_of_its_family(family, gamma, monkeypatch):
    certified = []
    for slot in ("eta", "phi", "xi"):
        def recording(generator, *args, slot=slot, validate=getattr(scores, f"validate_{slot}")):
            certified.append(slot)
            return validate(generator, *args)
        monkeypatch.setattr(scores, f"validate_{slot}", recording)
    scores._certificate.cache_clear()
    slots = DivergenceSpec.slots(family, gamma)
    if family == "xi_holder" and gamma == 0.0:
        with pytest.raises(DomainError):
            cli.build_spec(family, gamma, "dpd", "log", "power:0.5", 0.5)
        assert certified == []
        return
    spec = cli.build_spec(family, gamma, "dpd", "log", "power:0.5", 0.5)
    assert certified == [slot for slot in slots if slot != "zeta"]
    assert {slot for slot in cli.SLOTS if getattr(spec, slot) is not None} == set(slots)


def test_holder_at_gamma_zero_ignores_its_eta_flag(density_files, capsys):
    assert DivergenceSpec.slots("holder", 0.0) == ()
    assert cli.build_spec("holder", 0.0, "nonsense", None, None, None) == DivergenceSpec(
        "holder", 0.0)
    g, f = density_files
    outputs = []
    for eta in ([], ["--eta", "nonsense"]):
        assert run(["compute", "--family", "holder", "--gamma", "0", *eta,
                    "--g", g, "--f", f]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["config"].pop("eta", None)  # the resolved config echoes the flag
        outputs.append(payload)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# flag text
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [
    ["--family", "holder", "--eta", "dpd:5"],
    ["--family", "fdpd", "--phi", "identity:3"],
    ["--family", "fdpd", "--phi", "power"],
    ["--family", "fdpd", "--phi", "bdpd:1"],
    ["--family", "xi_holder", "--eta", "dpd", "--xi", "power:1:2"],
])
def test_wrong_parameter_count_exits_3(density_files, capsys, flags):
    g, f = density_files
    assert run(["compute", *flags, "--gamma", "1", "--g", g, "--f", f]) == 3
    assert "is written" in capsys.readouterr().err


def test_unknown_generator_lists_the_known_names(density_files, capsys):
    g, f = density_files
    assert run(["compute", "--family", "fdpd", "--phi", "nope", "--gamma", "1",
                "--g", g, "--f", f]) == 3
    err = capsys.readouterr().err
    assert ("identity, log, power:zeta, bdpd:lam1:lam2, exp-minus-one, file:path"
            in err)


def test_spec_label_keeps_every_digit(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "r.json"
    assert run(["compute", "--family", "fdpd", "--phi", "power:0.123456789",
                "--gamma", "1", "--g", g, "--f", f, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["spec"]["phi"] == "power:0.123456789"


@pytest.mark.parametrize("flags", [
    ["--spec", "family=fdpd,phi=identity,gamma=abc"],
    ["--spec", "family=jhhb,zeta=x,gamma=0.5"],
    ["--spec", "family=jhhb,zeta=0,gamma=0.5", "--epsilons", "0,abc"],
], ids=["gamma", "zeta", "epsilons"])
def test_sweep_non_numeric_values_exit_3(flags, capsys):
    args = ["sweep", "--outlier", "8", "--n", "50", "--seed", "1", *flags]
    if "--epsilons" not in flags:
        args += ["--epsilons", "0"]
    assert run(args) == 3
    assert "expected a numeric parameter" in capsys.readouterr().err


VERIFY_CHECKS = [
    ("affine-invariance", "check_affine_invariance"),
    ("jhhb-representation", "verify_jhhb_holder_representation"),
    ("fdps-lower-bound", "check_fdps_lower_bound"),
    ("uv-consistency", "check_uv_consistency"),
    ("equality-conditions", "equality_condition_probe"),
]


@pytest.mark.parametrize("theorem, check", VERIFY_CHECKS)
@pytest.mark.parametrize("tolerance", [None, "0.25"])
def test_verify_tolerance_reaches_every_check(monkeypatch, tmp_path, theorem, check,
                                              tolerance):
    from divkit import checks

    seen = {}
    real = getattr(checks, check)

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, check, spy)
    args = ["verify", "--theorem", theorem, "--gamma", "1", "--zeta", "0.5",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "r.json")]
    run(args + ([] if tolerance is None else ["--tolerance", tolerance]))
    if tolerance is None:
        assert "tolerance" not in seen  # the check's own default applies
    else:
        assert seen["tolerance"] == 0.25


def test_tight_tolerance_flips_the_equality_probe(tmp_path):
    args = ["verify", "--theorem", "equality-conditions", "--phi", "log",
            "--gamma", "1", "--seed", "1", "--out", str(tmp_path / "r.json")]
    assert run(args) == 0  # D is zero up to rounding, as psi is affine
    assert run(args + ["--tolerance", "1e-20"]) == 1


# ---------------------------------------------------------------------------
# out-of-range flags: each exits 3 with a message, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [
    ["--theorem", "affine-invariance", "--trials", "-3"],
    ["--theorem", "jhhb-representation", "--zeta", "0.5", "--trials", "0"],
    ["--theorem", "fdps-lower-bound", "--trials", "0"],
], ids=["affine-invariance", "jhhb-representation", "fdps-lower-bound"])
def test_verify_without_trials_exits_3(flags, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", *flags, "--gamma", "0.5", "--seed", "1", "--out", str(out)]) == 3
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["verify", "--theorem", "affine-invariance", "--gamma", "1", "--trials", "3"],
    ["verify", "--theorem", "jhhb-representation", "--zeta", "0.5", "--gamma", "1",
     "--trials", "10"],
    ["verify", "--theorem", "fdps-lower-bound", "--phi", "log", "--gamma", "1",
     "--trials", "3"],
    ["verify", "--theorem", "uv-consistency", "--gamma", "1", "--trials", "3"],
    ["sweep", "--epsilons", "0", "--outlier", "8", "--n", "50",
     "--spec", "family=fdpd,phi=identity,gamma=0.5"],
], ids=["affine-invariance", "jhhb-representation", "fdps-lower-bound", "uv-consistency",
        "sweep"])
def test_a_negative_seed_exits_3(args, capsys, tmp_path):
    out = tmp_path / "r.out"
    assert run(args + ["--seed", "-1", "--out", str(out)]) == 3
    assert "seeds must be nonnegative integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("theorem", [theorem for theorem, _ in VERIFY_CHECKS])
def test_verify_with_a_tolerance_that_is_no_finite_number_ge_0_exits_3(theorem, tolerance,
                                                                        capsys, tmp_path):
    # exit 1 would report a counterexample
    out = tmp_path / "r.json"
    assert run(["verify", "--theorem", theorem, "--gamma", "1", "--zeta", "0.5",
                "--trials", "5", "--seed", "1", "--tolerance", tolerance,
                "--out", str(out)]) == 3
    assert "tolerance must be a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_affine_on_a_one_point_grid_exits_3(capsys):
    assert run(["verify", "--theorem", "affine-invariance", "--gamma", "0.5",
                "--trials", "2", "--grid-points", "1", "--seed", "1"]) == 3
    assert "at least 2 points" in capsys.readouterr().err


def test_sweep_with_negative_n_exits_3(capsys):
    assert run(["sweep", "--epsilons", "0,0.1", "--outlier", "6", "--n", "-5",
                "--seed", "1", "--spec", "family=fdpd,phi=identity,gamma=0.5"]) == 3
    assert "n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--family", "jhhb", "--zeta", "nan", "--gamma", "0.5"],
    ["--family", "jhhb", "--zeta", "inf", "--gamma", "0.5"],
    ["--family", "fdpd", "--phi", "identity", "--gamma", "inf"],
    ["--family", "holder", "--eta", "dpd", "--gamma", "nan"],
], ids=["zeta-nan", "zeta-inf", "gamma-inf", "gamma-nan"])
def test_compute_with_a_non_finite_parameter_exits_3(density_files, flags, capsys, tmp_path):
    g, f = density_files
    out = tmp_path / "r.json"
    assert run(["compute", *flags, "--g", g, "--f", f, "--out", str(out)]) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_with_a_nan_zeta_exits_3(tmp_path, capsys):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    assert run(["estimate", "--family", "jhhb", "--zeta", "nan", "--gamma", "0.5",
                "--samples", str(samples_path)]) == 3
    assert "zeta must be finite" in capsys.readouterr().err


def test_verify_with_a_nan_zeta_exits_3(capsys):
    assert run(["verify", "--theorem", "jhhb-representation", "--zeta", "nan",
                "--gamma", "0.5", "--trials", "3", "--seed", "1"]) == 3
    assert "finite zeta" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_max_iterations_below_one_exits_3(tmp_path, capsys, command, value):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    args = (["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
             "--samples", str(samples_path)] if command == "estimate" else
            ["sweep", "--epsilons", "0", "--outlier", "6", "--n", "50", "--seed", "1",
             "--spec", "family=fdpd,phi=identity,gamma=0.5"])
    assert run(args + ["--max-iterations", value]) == 3
    assert f"max_iterations must be >= 1, got {value}" in capsys.readouterr().err


def test_max_iterations_reaches_the_optimizer(tmp_path):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, np.random.default_rng(2).standard_normal(200))
    out = tmp_path / "fit.json"
    args = ["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
            "--samples", str(samples_path), "--out", str(out)]
    assert run(args) == 0
    default = json.loads(out.read_text())["result"]["evaluations"]
    run(args + ["--max-iterations", "1"])
    payload = json.loads(out.read_text())
    assert payload["config"]["max_iterations"] == 1
    assert sum(payload["result"]["evaluations"]) < sum(default)


def test_sweep_without_epsilons_exits_3(capsys):
    assert run(["sweep", "--epsilons", ",", "--outlier", "6", "--seed", "1",
                "--spec", "family=fdpd,phi=identity,gamma=0.5"]) == 3
    assert "--epsilons needs at least one value" in capsys.readouterr().err


@pytest.mark.parametrize("flags, family", [
    (["--family", "jhhb", "--zeta", "2"], "jhhb"),
    (["--family", "fdpd", "--phi", "power:2"], "fdpd"),
    (["--family", "fdpd", "--phi", "exp-minus-one"], "fdpd"),
], ids=["jhhb-zeta-2", "fdpd-power-2", "fdpd-exp-minus-one"])
def test_compute_out_of_float_range_exits_3(tmp_path, capsys, flags, family):
    # X = Y = Z = 1e300 are in range; the scores are not.  Warnings are errors
    # in this suite, so numpy's overflow warning would fail the test too.
    path = tmp_path / "big.csv"
    path.write_text("index,mass\n0,1e150\n1,1\n")
    out = tmp_path / "r.json"
    assert run(["compute", *flags, "--gamma", "1", "--g", str(path), "--f", str(path),
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"divkit: the {family} score leaves float range at gamma=1.0\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, what", [
    # phi(X) overflows, so every gap would be NaN: no trial may pass silently
    (["--theorem", "fdps-lower-bound", "--phi", "power:300"], "fdpd score"),
    # X**300 overflows in Python floats
    (["--theorem", "jhhb-representation", "--zeta", "300"], "jhhb score"),
    # xi(X) = xi(Y) = inf: inf - inf is no error of 0
    (["--theorem", "uv-consistency", "--xi", "power:300"], "xi value"),
], ids=["fdps-lower-bound", "jhhb-representation", "uv-consistency"])
def test_verify_out_of_float_range_exits_3(tmp_path, capsys, flags, what):
    out = tmp_path / "r.json"
    assert run(["verify", *flags, "--gamma", "1", "--trials", "10", "--seed", "1",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"divkit: the {what} leaves float range at gamma=1.0\n")
    assert not out.exists()
