"""Every CLI command below must print and write the bytes it did when the
table was taken: one SHA-256 over each run's exit code, stdout and CSV
file.  stderr is left out, since numpy warnings name source lines.

BLAS, libm and numpy's SIMD loops round differently across builds, CPUs
and the BLAS kernel sets picked at run time, so the table holds for the
environment it was taken in, named by its fingerprint; anywhere else the
test skips and names the fingerprint it found.  A change that moves bytes
on purpose edits the entries it moves and says so in CHANGES.md;
``PYTHONPATH=src python tests/test_golden.py`` prints this environment's
fingerprint and table, from the same commands and digests."""

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from extrace.cli import main
from extrace.linalg import matrix_to_literal, two_block

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy before 2.0
    from numpy.core import _multiarray_umath as umath

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROGRAMS = ["hadamard_delay_loop", "nested_loop", "phase_chain", "swap_loop"]
KERNELS = {"k2": (2, 1, 64), "k4": (4, 2, 256), "k6": (6, 3, 128)}  # ports, loop, grid
TRACES = {"c4": (4, True), "c16": (16, True), "c48": (48, True), "e8": (8, False), "e32": (32, False)}
# A Jordan loop block, whose series diverges, and f_UU = diag(1e200, 1), whose
# series runs to max_terms; with their extra trace arguments.
FIXED = {"jordan": ([[0.5, 1, 0], [0, 1, 1], [1, 0, 1]], []),
         "huge": ([[0, 0, 1], [0, 1e200, 0], [1, 0, 1]], ["--max-terms", "1000"])}


def blas_core() -> str:
    """The kernel set numpy's bundled OpenBLAS picked at run time, which
    OPENBLAS_CORETYPE can change on the same CPU; "unknown" for another BLAS."""
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def fingerprint() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown BLAS"
    features = " ".join(sorted(name for name, on in umath.__cpu_features__.items() if on))
    return (f"numpy {np.__version__}; {blas}, {blas_core()} kernels; {platform.machine()}; "
            f"{features}")


def fingerprint_digest(found: str) -> str:
    return hashlib.sha256(found.encode()).hexdigest()[:16]


def partitioned(rng, n: int, contraction: bool) -> np.ndarray:
    """n x n, loop block the trailing n // 2 ports: a contraction of norm
    0.8, or an expansion of norm about 2 whose loop block has norm 0.5."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if contraction:
        return z * (0.8 / np.linalg.norm(z, 2))
    k = n - n // 2
    loop = z[k:, k:] * (0.5 / np.linalg.norm(z[k:, k:], 2))
    z[k:, k:] = 0
    z *= 2.0 / np.linalg.norm(z, 2)
    z[k:, k:] = loop
    return z


def fir_kernel(rng, ports: int) -> dict:
    """Three taps of norm 0.3 each at offsets 0..6: a strict contraction."""
    taps = {}
    for t in sorted(rng.choice(7, size=3, replace=False).tolist()):
        tap = rng.standard_normal((ports, ports)) + 1j * rng.standard_normal((ports, ports))
        taps[str(t)] = matrix_to_literal(tap * (0.3 / np.linalg.norm(tap, 2)))
    names = [f"p{i}" for i in range(ports)]
    return {"in_ports": names, "out_ports": names, "taps": taps}


def write_inputs(root: Path) -> None:
    rng = np.random.default_rng(2021)
    for name, (ports, _, _) in KERNELS.items():
        (root / f"{name}.json").write_text(json.dumps(fir_kernel(rng, ports)))
    matrices = {name: (partitioned(rng, n, c), n // 2) for name, (n, c) in TRACES.items()}
    matrices.update({name: (np.array(m, dtype=complex), 2) for name, (m, _) in FIXED.items()})
    for name, (m, loop) in matrices.items():
        (root / f"{name}.json").write_text(json.dumps({**two_block(m, loop).to_json(), "loop": "U"}))


def commands() -> dict:
    """{id: (argv, writes CSV)}; "{}" in argv stands for the input
    directory, and a run that writes CSV gets --out there."""
    cmds = {}
    for program in PROGRAMS:
        for grid in (8, 256):
            cmds[f"qwhile-{program}-{grid}"] = (["qwhile", "run", str(CORPUS / f"{program}.qw"),
                                                 "--grid", str(grid)], True)
    cmds["qwhile-hadamard_delay_loop-4096"] = (
        ["qwhile", "run", str(CORPUS / "hadamard_delay_loop.qw"), "--grid", "4096"], True)
    for name, (_, loop, grid) in KERNELS.items():
        for csv in (False, True):
            cmds[f"lsi-{name}{'-csv' if csv else ''}"] = (
                ["lsi", "{}/" + f"{name}.json", "--grid", str(grid), "--loop", str(loop)], csv)
    extra = {name: args for name, (_, args) in FIXED.items()}
    for name in [*TRACES, *FIXED]:
        for method in ("both", "series", "ki"):
            cmds[f"trace-{name}-{method}"] = (
                ["trace", "--method", method, *extra.get(name, []), "{}/" + f"{name}.json"], False)
    for seed in (0, 7):
        cmds[f"axioms-200-seed{seed}"] = (["axioms", "--cases", "200", "--seed", str(seed)], False)
    cmds["grover-4096-csv"] = (["grover", "--B", "4096", "--trials", "2000", "--seed", "3"], True)
    cmds["grover-1e6"] = (["grover", "--B", "1000000", "--kappa", "0.001", "--trials", "1000",
                           "--seed", "1"], False)
    # The closed form's d < 0 regime: kappa = 1 at B = 2, and kappa 1e-12 short of 1.
    cmds["grover-2-kappa1-csv"] = (["grover", "--B", "2", "--kappa", "1", "--trials", "100",
                                    "--seed", "0"], True)
    cmds["grover-3-near-kappa1-csv"] = (["grover", "--B", "3", "--kappa", "0.999999999999",
                                         "--trials", "2000", "--seed", "2"], True)
    cmds["grover-statevector-csv"] = (["grover", "--B", "64", "--kappa", "0.3", "--seed", "1",
                                       "--mode", "statevector"], True)
    cmds["bound-10000"] = (["bound", "--B", "10000", "--c", "2"], False)
    return cmds


COMMANDS = commands()


def digest(root: Path, argv: list, csv: bool) -> str:
    argv = [a.replace("{}", str(root)) for a in argv]
    out_csv = root / "out.csv"
    out_csv.unlink(missing_ok=True)
    if csv:
        argv += ["--out", str(out_csv)]
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    h = hashlib.sha256(f"{code}\0{stdout.getvalue()}\0".encode())
    h.update(out_csv.read_bytes() if csv else b"")
    return h.hexdigest()[:16]


# SHA-256 of fingerprint() for the environment the table was taken in:
# numpy 2.4.6, scipy-openblas 0.3.31.188.0 with its SkylakeX kernels, x86_64 with AVX-512.
TABLE_FINGERPRINT = "91a2a150829d5ca9"
GOLDEN = {
    "qwhile-hadamard_delay_loop-8": "1062615ad8b3a2a1",
    "qwhile-hadamard_delay_loop-256": "51a0ad012c24f426",
    "qwhile-nested_loop-8": "4b76037b4ace5ede",
    "qwhile-nested_loop-256": "bc0eef6f8fa90c87",
    "qwhile-phase_chain-8": "bae7bb3656410b63",
    "qwhile-phase_chain-256": "35544e2dc3fd7427",
    "qwhile-swap_loop-8": "ae899ec75808631c",
    "qwhile-swap_loop-256": "5270e4f8ffed02ae",
    "qwhile-hadamard_delay_loop-4096": "bee95ef40587cf15",
    "lsi-k2": "cb51f44f4b51b6f3",
    "lsi-k2-csv": "c1139a7dcba34487",
    "lsi-k4": "77e2874d151a6aae",
    "lsi-k4-csv": "3d8d6449efad1120",
    "lsi-k6": "b69f7a3e0c012b19",
    "lsi-k6-csv": "72a14ad6c159f07f",
    "trace-c4-both": "5f46840afad7789f",
    "trace-c4-series": "84c301e5b23e0c02",
    "trace-c4-ki": "afb6205397503968",
    "trace-c16-both": "4a46533fb5f4a6da",
    "trace-c16-series": "8cedb7824ff21533",
    "trace-c16-ki": "9616c77b862f274a",
    "trace-c48-both": "54d35bd729b74e65",
    "trace-c48-series": "605bc16fa3bf8c1c",
    "trace-c48-ki": "c48b4c777b155116",
    "trace-e8-both": "02cb9f8f6007a815",
    "trace-e8-series": "4f96f2882050e10e",
    "trace-e8-ki": "02cb9f8f6007a815",
    "trace-e32-both": "babc74b0df5a75da",
    "trace-e32-series": "bf6040234dd91739",
    "trace-e32-ki": "babc74b0df5a75da",
    "trace-jordan-both": "b34a3301b28cf240",
    "trace-jordan-series": "b34a3301b28cf240",
    "trace-jordan-ki": "f0f7393d9153576b",
    "trace-huge-both": "e77bab9b4ecbeaa3",
    "trace-huge-series": "e77bab9b4ecbeaa3",
    "trace-huge-ki": "f0f7393d9153576b",
    "axioms-200-seed0": "4c8308ea5606e9e0",
    "axioms-200-seed7": "1379d8a4931d9b6e",
    "grover-4096-csv": "e77f7f8e06ac3d36",
    "grover-1e6": "a18f7b44bebb740e",
    "grover-2-kappa1-csv": "b5ac013b005c7e33",
    "grover-3-near-kappa1-csv": "c162b093a9dcda0c",
    "grover-statevector-csv": "fbfea0918f91e547",
    "bound-10000": "f779d42d94fb1455",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    found = fingerprint()
    if fingerprint_digest(found) != TABLE_FINGERPRINT:
        pytest.skip(f"golden table not taken in this environment: {found}")
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    return root


@pytest.mark.parametrize("cid", COMMANDS)
def test_cli_bytes_match_the_golden_table(inputs, cid):
    assert digest(inputs, *COMMANDS[cid]) == GOLDEN[cid]


if __name__ == "__main__":
    import tempfile

    found = fingerprint()
    print(f"# {found}")
    print(f'TABLE_FINGERPRINT = "{fingerprint_digest(found)}"')
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        for cid, (argv, csv) in COMMANDS.items():
            print(f'    "{cid}": "{digest(root, argv, csv)}",')
    print("}")
