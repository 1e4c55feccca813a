import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from extrace import linalg, lsi
from extrace.linalg import LinalgError, random_contraction, random_unitary
from extrace.lsi import (
    FirKernel,
    FrequencyResponse,
    Signal,
    convolve,
    dtft,
    lsi_classify,
    lsi_ex,
    parseval_norm,
    response_to_csv,
)
from extrace.qwhile import parse_source, semantics
from extrace.trace import KiTraceError, TraceConfig

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def random_kernel(out_n, in_n, n_taps, rng, spread=4):
    offsets = rng.choice(np.arange(-spread, spread + 1), size=n_taps, replace=False)
    taps = {
        int(t): rng.standard_normal((out_n, in_n)) + 1j * rng.standard_normal((out_n, in_n))
        for t in offsets
    }
    outs = tuple(f"o{i}" for i in range(out_n))
    ins = tuple(f"i{i}" for i in range(in_n))
    return FirKernel(outs, ins, taps)


def test_delta_kernel_transform_is_identity():
    r = dtft(FirKernel(("a", "b"), ("a", "b"), {0: np.eye(2)}), 16)
    assert np.allclose(r.samples, np.eye(2))


def test_delay_kernel_transform_is_phase():
    r = dtft(FirKernel(("a",), ("a",), {3: np.eye(1)}), 32)
    assert np.allclose(r.samples[:, 0, 0], np.exp(-1j * r.grid * 3))


def test_kernel_validates_tap_shapes():
    with pytest.raises(LinalgError):
        FirKernel(("a",), ("b", "c"), {0: np.eye(2)})


def test_kernel_json_round_trip():
    k = random_kernel(2, 3, 3, np.random.default_rng(0))
    back = FirKernel.from_json(json.loads(json.dumps(k.to_json())))
    assert set(back.taps) == set(k.taps)
    for t in k.taps:
        assert np.allclose(back.taps[t], k.taps[t])


def test_convolution_theorem():
    # transform(g * f) == transform(g) @ transform(f) pointwise.
    rng = np.random.default_rng(42)
    for _ in range(25):
        f = random_kernel(3, 2, 3, rng)
        g = random_kernel(2, 3, 4, rng)
        g = FirKernel(g.out_ports, f.out_ports, g.taps)
        gf = convolve(g, f)
        n = 64
        lhs = dtft(gf, n).samples
        rhs = np.einsum("nij,njk->nik", dtft(g, n).samples, dtft(f, n).samples)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_convolve_port_mismatch():
    f = random_kernel(2, 2, 1, np.random.default_rng(1))
    g = random_kernel(2, 3, 1, np.random.default_rng(2))
    with pytest.raises(LinalgError):
        convolve(g, f)


def test_convolution_with_delta_is_identity():
    rng = np.random.default_rng(5)
    f = random_kernel(2, 2, 3, rng)
    d = FirKernel(f.out_ports, f.out_ports, {0: np.eye(len(f.out_ports))})
    gf = convolve(d, f)
    assert set(gf.taps) == set(f.taps)
    for t in f.taps:
        assert np.allclose(gf.taps[t], f.taps[t])


def test_parseval_trivial_cases():
    assert parseval_norm(Signal(("a",), {0: [1.0]}), 8) == pytest.approx(1.0)
    assert parseval_norm(Signal(("a",), {0: [1.0], 5: [1.0]}), 16) == pytest.approx(2.0)


def test_parseval_matches_time_domain():
    rng = np.random.default_rng(17)
    for _ in range(20):
        times = rng.choice(np.arange(-6, 7), size=5, replace=False)
        s = Signal(
            ("a", "b"),
            {int(t): rng.standard_normal(2) + 1j * rng.standard_normal(2) for t in times},
        )
        assert parseval_norm(s, 64) == pytest.approx(s.norm_squared(), abs=1e-9)


def test_parseval_overflow_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # Overflow in the square, and in the transform's own sum.
        assert parseval_norm(Signal(("a",), {0: [1e200]}), 4) == math.inf
        assert parseval_norm(Signal(("a",), {0: [1e308], 1: [1e308]}), 4) == math.inf


def test_parseval_rejects_tiny_grid():
    s = Signal(("a",), {0: [1.0], 10: [1.0]})
    with pytest.raises(LinalgError):
        parseval_norm(s, 4)


def test_lsi_classify_contraction_vs_not():
    rng = np.random.default_rng(3)
    k_c = FirKernel(("o",), ("i",), {0: [[0.5]], 1: [[0.25]]})
    # norm at omega=0 is 0.75 < 1 but the kernel with taps 0.8/0.8 peaks at 1.6
    k_e = FirKernel(("o",), ("i",), {0: [[0.8]], 1: [[0.8]]})
    assert lsi_classify(dtft(k_c, 32)) == "lsi_contraction"
    assert lsi_classify(dtft(k_e, 32)) == "not_certified"
    del rng


@pytest.mark.parametrize("special", [math.inf, math.nan, complex(0, math.inf)],
                         ids=["inf", "nan", "imaginary_inf"])
@pytest.mark.parametrize("where", ["all", "one"])
def test_lsi_classify_non_finite_sample_is_not_certified(special, where):
    # A sample that is not finite has no norm within the limit, and no trace.
    samples = np.full((8, 2, 2), special) if where == "all" else np.zeros((8, 2, 2), complex)
    samples[3, 1, 0] = special
    r = FrequencyResponse(samples, ("a", "x"), ("c", "x"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lsi_classify(r) == "not_certified"
    with pytest.raises(LinalgError, match="^matrix contains non-finite entries$"):
        lsi_ex(r, 1)


def test_tap_offsets_are_int64():
    # At the int64 ends the transform is finite; 10**400 used to overflow its phase.
    k = FirKernel(("o",), ("i",), {2**63 - 1: [[0.5]], -(2**63): [[0.25]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(dtft(k, 8).samples).all()
    for offset in [2**63, -(2**63) - 1]:
        with pytest.raises(LinalgError, match="tap offsets must lie in the int64 range"):
            FirKernel(("o",), ("i",), {offset: [[0.5]]})
    # A JSON key is a string, which from_json reads as ASCII digits.
    taps = {"9" * 400: [[[0.5, 0]]]}
    with pytest.raises(LinalgError, match="tap offsets must lie in the int64 range"):
        FirKernel.from_json({"in_ports": ["i"], "out_ports": ["o"], "taps": taps})


def test_times_must_be_integers():
    # int() would truncate both times to 1, and the second tap would replace the first.
    with pytest.raises(LinalgError, match=r"tap offset must be an integer, not 1\.2"):
        FirKernel(("o",), ("i",), {1.2: [[0.5]], 1.7: [[0.25]]})
    with pytest.raises(LinalgError, match=r"sample time must be an integer, not 1\.5"):
        Signal(("a",), {1.5: [1.0]})
    with pytest.raises(LinalgError, match="tap offset must be an integer, not '3'"):
        FirKernel(("o",), ("i",), {"3": [[0.5]]})
    kernel = FirKernel(("o",), ("i",), {np.int64(3): [[0.5]]})
    assert [type(t) for t in kernel.taps] == [int]
    assert list(Signal(("a",), {np.int32(-2): [1.0]}).samples) == [-2]


@pytest.mark.parametrize("ports,kind", [("i", "a string"), ({"i": 0}, "dict")])
def test_ports_must_be_a_list_or_tuple(ports, kind):
    # A string would pass as its letters and a mapping as its keys.
    with pytest.raises(LinalgError, match=f"in_ports must be a sequence of labels, not {kind}"):
        FirKernel(("o",), ports, {0: [[0.5]]})
    with pytest.raises(LinalgError, match=f"out_ports must be a sequence of labels, not {kind}"):
        FirKernel.from_json({"in_ports": ["i"], "out_ports": ports, "taps": {"0": [[[0.5, 0]]]}})
    kernel = FirKernel.from_json({"in_ports": ["i"], "out_ports": ["o"], "taps": {}})
    assert kernel.out_ports == ("o",)
    with pytest.raises(LinalgError, match=f"in_ports must be a sequence of labels, not {kind}"):
        FrequencyResponse(np.zeros((4, 1, 1)), ("o",), ports)
    with pytest.raises(LinalgError, match=f"^ports must be a sequence of labels, not {kind}"):
        Signal(ports, {0: [1.0]})


def test_lsi_ex_constant_hadamard():
    r = dtft(FirKernel(("o0", "x"), ("i0", "x"), {0: HADAMARD}), 64)
    traced = lsi_ex(r, 1)
    assert traced.samples.shape == (64, 1, 1)
    assert np.allclose(traced.samples, 1.0, atol=1e-10)


def test_lsi_ex_agrees_with_single_frequency_evaluation():
    # per-omega independence: tracing the whole grid must equal tracing
    # a one-off two-point response at matching frequencies.
    from extrace.trace import ex
    from extrace.linalg import two_block

    rng = np.random.default_rng(8)
    k = FirKernel(
        ("o", "x"), ("i", "x"), {0: random_contraction(2, 2, rng), 1: 0.3 * np.eye(2)}
    )
    r = dtft(k, 16)
    if lsi_classify(r) != "lsi_contraction":
        pytest.skip("random draw was not a contraction kernel")
    traced = lsi_ex(r, 1)
    for j in range(r.grid_size):
        direct = ex(two_block(r.samples[j], 1), "U").value
        assert np.allclose(traced.samples[j], direct, atol=1e-10)


def test_lsi_ex_port_validation():
    r = dtft(FirKernel(("o", "x"), ("i", "y"), {0: np.eye(2)}), 8)
    with pytest.raises(LinalgError):
        lsi_ex(r, 1)


def test_lsi_ex_failure_keeps_the_trace_core_error():
    # A witness tolerance below roundoff fails every sample of a contraction
    # kernel; the first frequency's KiTraceError arrives with its residuals.
    rng = np.random.default_rng(23)
    k = FirKernel(("o", "x", "y"), ("i", "x", "y"),
                  {0: 0.5 * random_unitary(3, rng), 1: 0.5 * random_unitary(3, rng)})
    with pytest.raises(KiTraceError, match=r"^loop trace failed at omega=0\.000000: "
                       r"not ki-traceable: witness residuals") as exc:
        lsi_ex(dtft(k, 16), 2, TraceConfig(ki_residual_tol=1e-30))
    assert max(exc.value.residual_in, exc.value.residual_out) > 1e-30
    assert exc.value.index == 0


def test_adjoint_response_identity():
    # time-reversed conjugate kernel <-> conjugate-transposed response
    rng = np.random.default_rng(31)
    k = random_kernel(3, 2, 4, rng)
    adj = FirKernel(k.in_ports, k.out_ports, {-t: np.conj(m.T) for t, m in k.taps.items()})
    lhs = dtft(adj, 32).samples
    rhs = np.conj(np.transpose(dtft(k, 32).samples, (0, 2, 1)))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_response_to_csv_format(tmp_path):
    r = dtft(FirKernel(("a",), ("a",), {1: np.eye(1)}), 4)
    path = tmp_path / "resp.csv"
    response_to_csv(r, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "omega,row,col,re,im"
    assert len(lines) == 1 + 4
    omega, row, col, re, im = lines[2].split(",")
    assert float(omega) == pytest.approx(math.pi / 2)
    assert (int(row), int(col)) == (0, 0)
    assert complex(float(re), float(im)) == pytest.approx(np.exp(-1j * math.pi / 2))


def csv_module_reference(r, path):
    """The per-entry csv.writer loop that response_to_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "row", "col", "re", "im"])
        for omega, sample in zip(r.grid, r.samples):
            for i in range(sample.shape[0]):
                for j in range(sample.shape[1]):
                    writer.writerow(
                        [
                            format(omega, ".17g"),
                            i,
                            j,
                            format(sample[i, j].real, ".17g"),
                            format(sample[i, j].imag, ".17g"),
                        ]
                    )


def assert_csv_matches_reference(r, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    response_to_csv(r, got)
    csv_module_reference(r, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "program, grid",
    [(p.stem, 256) for p in sorted(CORPUS.glob("*.qw"))]
    + [("phase_chain", 4096), ("nested_loop", 4096)],
)
def test_corpus_csv_bytes_equal_csv_module(program, grid, tmp_path):
    source = parse_source((CORPUS / f"{program}.qw").read_text())
    assert_csv_matches_reference(semantics(source.program, grid), tmp_path)


@pytest.mark.parametrize("seed", range(6))
def test_fir_csv_bytes_equal_csv_module(seed, tmp_path):
    rng = np.random.default_rng(seed)
    ports = int(rng.integers(2, 17))
    loop = int(rng.integers(1, ports))
    names = tuple(f"p{i}" for i in range(ports))
    taps = {t: random_contraction(ports, ports, rng) / 3 for t in range(3)}
    r = dtft(FirKernel(names, names, taps), 32)
    assert_csv_matches_reference(r, tmp_path)
    assert_csv_matches_reference(lsi_ex(r, loop), tmp_path)


SPECIAL = [-0.0, 5e-324, 1e-320, math.nan, math.inf, -math.inf, 1 / 3, 1e300, -1e300]


def test_special_values_csv_bytes_equal_csv_module(tmp_path):
    values = np.array(SPECIAL)
    n = values.size
    samples = np.empty((n, 2, 3), dtype=np.complex128)
    samples.real = np.stack([np.roll(values, k) for k in range(6)], axis=1).reshape(n, 2, 3)
    samples.imag = np.stack([np.roll(values, -k) for k in range(6)], axis=1).reshape(n, 2, 3)
    r = FrequencyResponse(samples, ("o0", "o1"), ("i0", "i1", "i2"))
    assert_csv_matches_reference(r, tmp_path)
    empty = FrequencyResponse(np.zeros((n, 0, 0)), (), ())
    assert_csv_matches_reference(empty, tmp_path)


def test_csv_chunks_split_one_frequency(tmp_path, monkeypatch):
    # 5-row chunks: fewer than one frequency's 6 entries, and 78 rows in all
    monkeypatch.setattr(linalg, "CSV_CHUNK_ROWS", 5)
    k = random_kernel(2, 3, 3, np.random.default_rng(5))
    assert_csv_matches_reference(dtft(k, 13), tmp_path)


def test_frequency_response_refuses_one_sample():
    with pytest.raises(LinalgError, match="at least 2 points"):
        FrequencyResponse(np.zeros((1, 1, 1)), ("o",), ("i",))


@pytest.mark.parametrize("n", [2, 3, 64, 4096])
def test_frequency_response_grid_is_the_uniform_grid(n):
    r = FrequencyResponse(np.zeros((n, 1, 1)), ("o",), ("i",))
    assert r.grid_size == n
    assert r.grid.tobytes() == lsi._uniform_grid(n, 1).tobytes()


def test_frequency_response_ports_fit_samples():
    with pytest.raises(LinalgError, match="ports need"):
        FrequencyResponse(np.zeros((2, 2, 2)), ("o0", "o1"), ("i0", "i1", "i2"))
    with pytest.raises(LinalgError, match="ports need"):
        FrequencyResponse(np.zeros((2, 1)), ("o",), ("i",))
    with pytest.raises(LinalgError, match="ports need"):
        FrequencyResponse(np.zeros(2), ("o",), ("i",))
