from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gramtomo.cli import cmd_reconstruct, load_config
from gramtomo import Dataset, PovmSet, maxlik_solve
from gramtomo.serialize import encode_reconstruction, float_text, write_csv, write_wigner_csv


def repr_text(values) -> list[str]:
    return [repr(float(v)) for v in np.ravel(values)]


# every notation class: plain, [1e-5, 1e-4), scientific on both sides (with
# one- and two-digit exponents below 1), subnormals, signed zeros and the
# non-finite values
FLOATS = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e-5, max_value=1e-4),
    st.floats(min_value=0.0, max_value=1e-5),
    st.floats(min_value=1e-10, max_value=1e-8),
    st.floats(min_value=1e-6, max_value=1e-5),
    st.floats(min_value=1e15, max_value=1e17),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")]),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                  elements=FLOATS))
def test_float_text_is_repr(a):
    assert float_text(a) == repr_text(a)


def test_float_text_edges():
    edges = [np.nextafter(edge, toward) for edge in (1e-5, 1e-4, 1e16, 1e-9, 1e22)
             for toward in (0.0, np.inf)]
    edges += [1e-5, 1e-4, 1e16, 1e-9, 1e22, 5e-324, 1.7976931348623157e308,
              np.nextafter(1.7976931348623157e308, 0.0), 9.999999999999999e15, -0.0]
    a = np.array(edges + [-v for v in edges])
    assert float_text(a) == repr_text(a)
    assert float_text(a[:6]) == ["9.999999999999999e-06", "1.0000000000000003e-05",
                                 "9.999999999999999e-05", "0.00010000000000000002",
                                 "9999999999999998.0", "1.0000000000000002e+16"]


def test_float_text_of_empty_and_scalar_input():
    assert float_text(np.array([])) == []
    assert float_text(2.5) == ["2.5"]
    assert float_text(np.float32([0.1])) == [repr(float(np.float32(0.1)))]


def test_reference_wigner_grid_keeps_repr_bytes(tmp_path):
    grid = cmd_reconstruct(load_config(None))["wigner"]
    xs, ps, w = (np.asarray(v, dtype=float) for v in grid)
    assert w.shape == (81, 81)
    # the grid holds all three notation classes: 3877, 959 and 1725 values
    # at one BLAS thread
    magnitude = np.abs(w)
    plain = (magnitude >= 1e-4).sum()
    band = ((magnitude >= 1e-5) & (magnitude < 1e-4)).sum()
    scientific = ((magnitude > 0) & (magnitude < 1e-5)).sum()
    assert plain > 1000 and band > 500 and scientific > 1000
    echo = {"grid": "reference"}
    write_wigner_csv(tmp_path / "w.csv", xs, ps, w, echo)
    expected = ['# config: {"grid": "reference"}',
                "x," + ",".join(map(repr, xs.tolist())),
                "p," + ",".join(map(repr, ps.tolist()))]
    expected += [",".join(map(repr, row)) for row in w.tolist()]
    assert (tmp_path / "w.csv").read_text() == "\n".join(expected) + "\n"


def test_csv_table_mixing_cell_types(tmp_path):
    rows = [(1, True, "gram", 0.1, np.float64(2.5e-05)),
            (2, np.bool_(False), "fock", -1e16, np.float64(-0.0)),
            (3, False, "full", 1e-07, np.float64(np.nan))]
    write_csv(tmp_path / "t.csv", ["n", "flag", "basis", "x", "y"], rows, {"k": 1})
    assert (tmp_path / "t.csv").read_text() == (
        '# config: {"k": 1}\n'
        "n,flag,basis,x,y\n"
        "1,true,gram,0.1,2.5e-05\n"
        "2,false,fock,-1e+16,-0.0\n"
        "3,false,full,1e-07,nan\n")


def test_reconstruction_payload_names_every_field():
    # the payload is built from the result's fields: a new field is written
    # without an edit, and each value is already a plain JSON value
    povm = PovmSet(np.eye(3, dtype=complex))
    result = maxlik_solve(Dataset(counts=np.array([5.0, 3.0, 2.0])), povm)
    payload = encode_reconstruction(result)
    names = {field.name for field in dataclasses.fields(result)} - {"rho"}
    assert set(payload) == names | {"density_matrix", "converged"}
    assert payload["converged"] is result.converged
    assert payload["density_matrix"][1][1] == [result.rho[1, 1].real, result.rho[1, 1].imag]
    for name in names - {"log_likelihood"}:
        assert type(payload[name]) in (int, float, str, type(None)), name
    assert all(type(v) is float for v in payload["log_likelihood"])
