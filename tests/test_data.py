import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpca_lab.data import (
    CsvParseError,
    PgmParseError,
    SpheresParams,
    gen_two_spheres,
    read_csv_matrix,
    read_pgm,
    write_csv_matrix,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SpheresParams(n=7)
    with pytest.raises(ValueError):
        SpheresParams(n=0)
    with pytest.raises(ValueError):
        SpheresParams(r1=40.0, r2=40.0)
    with pytest.raises(ValueError):
        SpheresParams(r1=-1.0)
    with pytest.raises(ValueError):
        SpheresParams(noise=-0.5)
    for name in ("r1", "r2"):
        with pytest.raises(ValueError, match=f"radii must be finite.*{name}=inf"):
            SpheresParams(**{name: np.inf})
    for noise in (np.inf, np.nan):
        with pytest.raises(ValueError, match="noise must be finite"):
            SpheresParams(noise=noise)


def test_noiseless_radii_exact():
    ds = gen_two_spheres(SpheresParams(n=50, noise=0.0, seed=1))
    inner = np.linalg.norm(ds.features[:25], axis=1)
    outer = np.linalg.norm(ds.features[25:], axis=1)
    assert np.abs(inner - 40.0).max() <= 1e-12 * 40.0
    assert np.abs(outer - 100.0).max() <= 1e-12 * 100.0


def test_class_layout_and_counts():
    ds = gen_two_spheres(SpheresParams(n=30, seed=2))
    assert ds.features.shape == (30, 3)
    assert (ds.labels[:15] == 1).all()
    assert (ds.labels[15:] == -1).all()


def test_same_seed_is_deterministic():
    a = gen_two_spheres(SpheresParams(n=100, seed=9))
    b = gen_two_spheres(SpheresParams(n=100, seed=9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_mean_outer_radius_near_nominal():
    ds = gen_two_spheres(SpheresParams(seed=3))
    outer = np.linalg.norm(ds.features[500:], axis=1)
    assert 99.0 <= outer.mean() <= 101.0


def test_stream_convention_reproducible_from_documented_recipe():
    # Rebuild class +1 from scratch following the documented convention:
    # per-class PCG64 child streams, draw order theta, phi, then two uniform
    # blocks for Box-Muller noise sqrt(-2 ln(1-u1)) cos(2 pi u2).
    p = SpheresParams(n=20, seed=77)
    child = np.random.SeedSequence(77).spawn(2)[0]
    rng = np.random.Generator(np.random.PCG64(child))
    theta = rng.random(10) * np.pi
    phi = rng.random(10) * 2.0 * np.pi
    pts = p.r1 * np.column_stack([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
    u1 = rng.random((10, 3))
    u2 = rng.random((10, 3))
    pts = pts + p.noise * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    ds = gen_two_spheres(p)
    assert np.array_equal(ds.features[:10], pts)


def test_frozen_first_rows():
    # Golden values pin the seeded byte stream across platforms and versions.
    ds = gen_two_spheres(SpheresParams(seed=42))
    assert ds.features[0] == pytest.approx(
        [-11.101653754359319, 4.5938650414249382, -38.21663528529902],
        rel=0.0, abs=1e-12,
    )
    assert ds.features[500] == pytest.approx(
        [-84.266626381749489, -53.557312203552463, 10.034550129170569],
        rel=0.0, abs=1e-12,
    )


def test_class_streams_are_independent():
    # each class draws from its own spawned substream, so changing one
    # radius leaves the other class's points byte-identical
    base = gen_two_spheres(SpheresParams(n=20, seed=4))
    wider = gen_two_spheres(SpheresParams(n=20, r2=250.0, seed=4))
    assert np.array_equal(wider.features[:10], base.features[:10])
    assert not np.array_equal(wider.features[10:], base.features[10:])
    shrunk = gen_two_spheres(SpheresParams(n=20, r1=10.0, seed=4))
    assert np.array_equal(shrunk.features[10:], base.features[10:])
    assert not np.array_equal(shrunk.features[:10], base.features[:10])


def test_csv_single_value(tmp_path):
    path = tmp_path / "m.csv"
    write_csv_matrix(np.array([[3.5]]), path)
    assert path.read_text() == "3.5\n"
    assert np.array_equal(read_csv_matrix(path), [[3.5]])


def test_csv_full_precision_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    m = np.array([[np.pi, 1.0 / 3.0], [-2.0 ** -40, 1e300]])
    write_csv_matrix(m, path)
    assert np.array_equal(read_csv_matrix(path), m)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvParseError) as info:
        read_csv_matrix(path)
    assert str(info.value) == f"{path}: no data rows found"


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(CsvParseError, match="line 2") as info:
        read_csv_matrix(path)
    assert str(info.value).startswith(f"{path}: line 2: ")


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,abc\n")
    with pytest.raises(CsvParseError, match="line 2") as info:
        read_csv_matrix(path)
    assert str(info.value).startswith(f"{path}: line 2: ")


def test_csv_rejects_non_2d():
    with pytest.raises(ValueError):
        write_csv_matrix(np.zeros(3), "unused.csv")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_csv_round_trip_property(tmp_path_factory, seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 12)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_csv_matrix(m, path)
    assert np.array_equal(read_csv_matrix(path), m)


def test_pgm_ascii(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n2 2\n255\n0 1\n2 3\n")
    assert np.array_equal(read_pgm(path), [0.0, 1.0, 2.0, 3.0])


def test_pgm_binary_matches_ascii(tmp_path):
    ascii_path = tmp_path / "a.pgm"
    ascii_path.write_text("P2\n3 2\n255\n10 20 30\n40 50 60\n")
    binary_path = tmp_path / "b.pgm"
    binary_path.write_bytes(b"P5\n3 2\n255\n" + bytes([10, 20, 30, 40, 50, 60]))
    assert np.array_equal(read_pgm(ascii_path), read_pgm(binary_path))


def test_pgm_sixteen_bit_big_endian(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + (300).to_bytes(2, "big")
                     + (65535).to_bytes(2, "big"))
    assert np.array_equal(read_pgm(path), [300.0, 65535.0])


def test_pgm_comments_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2 # comment\n# another\n2 1\n9\n4 5\n")
    assert np.array_equal(read_pgm(path), [4.0, 5.0])


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(PgmParseError, match="truncated") as info:
        read_pgm(path)
    assert str(info.value).startswith(f"{path}: truncated payload")


def test_pgm_truncated_ascii(tmp_path):
    path = tmp_path / "t2.pgm"
    path.write_text("P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(PgmParseError):
        read_pgm(path)


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P6\n1 1\n255\n0\n")
    with pytest.raises(PgmParseError, match="magic") as info:
        read_pgm(path)
    assert str(info.value).startswith(f"{path}: unsupported magic")


def test_pgm_value_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_text("P2\n1 1\n10\n11\n")
    with pytest.raises(PgmParseError):
        read_pgm(path)


def test_pgm_bad_maxval(tmp_path):
    path = tmp_path / "mv.pgm"
    path.write_text("P2\n1 1\n70000\n0\n")
    with pytest.raises(PgmParseError):
        read_pgm(path)
