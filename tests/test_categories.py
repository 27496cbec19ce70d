"""Category data: fusion rules, F/R tables, consistency, file format."""

import cmath
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from metaplectic import categories
from metaplectic.categories import (BUILTIN_CATEGORIES, Category, CategoryFileError,
                                    InadmissibleError, MissingDataError, _hexagon,
                                    _label_tables, _pentagon, _su2_k,
                                    _symmetric_closure, builtin_category,
                                    categories_equal, check_consistency,
                                    parse_category, serialize_category)
from metaplectic.braidrep import general_generators, pair_tree_generators
from metaplectic.trees import comb_tree, enumerate_basis, parse_shape, tree_change


@pytest.fixture(scope="module")
def su24():
    return builtin_category("su2_4")


@pytest.fixture(scope="module")
def so52():
    return builtin_category("so5_2")


def test_unknown_category_name():
    with pytest.raises(ValueError) as err:
        builtin_category("su3_2")
    assert all(name in str(err.value) for name in BUILTIN_CATEGORIES)


def test_registry_names():
    assert tuple(BUILTIN_CATEGORIES) == ("su2_4", "so5_2")
    for name in BUILTIN_CATEGORIES:
        assert builtin_category(name).name == name


def _paper_su2_4_tables():
    """The paper's printed SU(2)_4 F-matrices and R-symbols, typed in.

    Keys are ``"abc d"`` (F) and ``"ab c"`` (R) in twice-spin labels; the
    printed F tables index columns by the left-associated charge, so each
    matrix is transposed into the row convention.  Every admissible
    non-unit F tuple the tables leave out is the scalar 1.
    """
    s2, s3 = math.sqrt(2), math.sqrt(3)
    m_a = [[-1 / s3, s2 / s3], [s2 / s3, 1 / s3]]
    m_b = [[-1 / s2, 1 / s2], [1 / s2, 1 / s2]]
    m_c = [[-s2 / s3, 1 / s3], [1 / s3, s2 / s3]]
    m_d = [[-0.5, s3 / 2], [s3 / 2, 0.5]]
    m_e = [[-s3 / 2, 0.5], [0.5, s3 / 2]]
    m_f = [[1 / s2, -1 / s2], [-1 / s2, -1 / s2]]
    m_g = [[0.5, -s3 / 2], [-s3 / 2, -0.5]]
    m_h = [[0.5, -1 / s2, 0.5], [-1 / s2, 0.0, 1 / s2], [0.5, 1 / s2, 0.5]]
    groups = [
        (-1.0, ["114 4", "123 4", "124 3", "132 4", "133 3", "134 2", "141 4",
                "142 3", "143 2", "144 1", "213 4", "214 3", "222 4", "224 2",
                "231 4", "234 1", "241 3", "242 2", "243 1", "312 4", "313 3",
                "314 2", "321 4", "324 1", "331 3", "333 1", "334 4", "341 2",
                "342 1", "343 4", "344 3", "411 4", "412 3", "413 2", "414 1",
                "421 3", "422 2", "423 1", "431 2", "432 1", "433 4", "434 3",
                "441 1", "443 3"]),
        (m_a, ["111 1", "131 3", "313 1", "333 3"]),
        (m_b, ["112 2", "122 1", "122 3", "132 2", "211 2", "213 2", "221 1",
               "221 3", "223 1", "231 2", "312 2", "322 1"]),
        (m_c, ["113 3", "133 1", "311 3", "331 1"]),
        (m_d, ["121 2", "212 1"]),
        (m_e, ["123 2", "212 3", "232 1", "321 2"]),
        (m_f, ["223 3", "233 2", "322 3", "332 2"]),
        (m_g, ["232 3", "323 2"]),
        (m_h, ["222 2"]),
    ]
    f_ref = {}
    for value, keys in groups:
        mat = np.atleast_2d(np.asarray(value, dtype=complex)).T
        for key in keys:
            abc, d = key.split()
            f_ref[(abc[0], abc[1], abc[2], d)] = mat

    e, pi = cmath.exp, math.pi
    r_groups = [
        (1.0, ["00 0", "01 1", "02 2", "03 3", "04 4", "10 1", "20 2", "30 3",
               "40 4", "44 0"]),
        (e(3j * pi / 4), ["11 0"]),
        (e(1j * pi / 12), ["11 2"]),
        (e(2j * pi / 3), ["12 1", "21 1", "22 2", "23 3", "32 3"]),
        (e(1j * pi / 6), ["12 3", "21 3"]),
        (e(7j * pi / 12), ["13 2", "31 2"]),
        (e(1j * pi / 4), ["13 4", "31 4"]),
        (1j, ["14 3", "41 3"]),
        (e(-2j * pi / 3), ["22 0"]),
        (e(1j * pi / 3), ["22 4"]),
        (e(-5j * pi / 6), ["23 1", "32 1"]),
        (-1.0, ["24 2", "42 2"]),
        (e(-1j * pi / 4), ["33 0"]),
        (e(-11j * pi / 12), ["33 2"]),
        (-1j, ["34 1", "43 1"]),
    ]
    r_ref = {(k[0], k[1], k[3]): complex(value) for value, keys in r_groups for k in keys}
    return f_ref, r_ref


def test_su24_matches_paper_tables(su24):
    f_ref, r_ref = _paper_su2_4_tables()
    for key in su24.f_table:  # the tables omit only scalar-1 blocks
        if key not in f_ref:
            assert len(su24.f_rows(*key)) == len(su24.f_cols(*key)) == 1
            f_ref[key] = np.ones((1, 1), dtype=complex)
    assert set(su24.f_table) == set(f_ref) and len(f_ref) == 134
    assert set(su24.r_table) == set(r_ref) and len(r_ref) == 35
    for key, mat in f_ref.items():
        assert su24.f_table[key].shape == mat.shape
        assert abs(su24.f_table[key] - mat).max() < 1e-14, key
    for key, value in r_ref.items():
        assert abs(su24.r_table[key] - value) < 1e-14, key


# counts and maxima of the scalar loops (loop_pentagon, loop_hexagon) at k = 7..10
SU2_K_PINNED = {
    7: (102464, "0x1.3p-49", 1408, "0x1.4863d7d40af11p-49"),
    8: (255629, "0x1.cp-50", 2241, "0x1.752e50db3a3a1p-49"),
    9: (587664, "0x1.8p-49", 3400, "0x1.64eec9d889df9p-48"),
    10: (1261260, "0x1.1p-48", 4961, "0x1.a3a5f68ee0453p-48"),
}


@pytest.mark.parametrize("k", range(1, 11))
def test_su2_k_consistent(k):
    cat = _su2_k(k)
    assert cat.labels == tuple(str(j) for j in range(k + 1))
    tracemalloc.start()
    try:
        report = check_consistency(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert report.skips == 0 and report.pentagon_checked > 0 and report.hexagon_checked > 0
    assert report.hexagon_orientation == "R"
    for value in (report.dim_residual, report.unitarity_max, report.r_modulus_max,
                  report.pentagon_max, report.hexagon_max):
        assert value < 1e-12
    if k in SU2_K_PINNED:
        p_checked, p_max, h_checked, h_max = SU2_K_PINNED[k]
        assert (report.pentagon_checked, report.hexagon_checked) == (p_checked, h_checked)
        assert float.fromhex(p_max) == report.pentagon_max
        assert abs(report.hexagon_max - float.fromhex(h_max)) < 1e-16


def test_su24_fusion_examples(su24):
    assert su24.fuse("eps", "eps") == frozenset({"0", "2"})  # 1 + Y
    assert su24.fuse("z", "z") == frozenset({"0"})
    assert su24.fuse("eps", "y") == frozenset({"1", "3"})
    assert su24.fuse("2", "2") == frozenset({"0", "2", "4"})


def test_so52_fusion_rules(so52):
    # the eight defining rules, with the min{.,.} index resolved at p = 5
    assert so52.fuse("eps", "eps") == frozenset({"1", "y1", "y2"})
    assert so52.fuse("eps", "eps'") == frozenset({"z", "y1", "y2"})
    assert so52.fuse("eps", "y1") == frozenset({"eps", "eps'"})
    assert so52.fuse("eps", "z") == frozenset({"eps'"})
    assert so52.fuse("z", "z") == frozenset({"1"})
    assert so52.fuse("z", "y1") == frozenset({"y1"})
    assert so52.fuse("y1", "y1") == frozenset({"1", "z", "y2"})
    assert so52.fuse("y2", "y2") == frozenset({"1", "z", "y1"})
    assert so52.fuse("y1", "y2") == frozenset({"y1", "y2"})


def test_qdim_values(su24, so52):
    assert su24.qdim["0"] == pytest.approx(1.0)
    assert su24.qdim["1"] == pytest.approx(math.sqrt(3))
    assert su24.qdim["2"] == pytest.approx(2.0)
    assert su24.qdim["4"] == pytest.approx(1.0)
    assert so52.qdim["eps"] == pytest.approx(math.sqrt(5))
    for cat in (su24, so52):
        for lab in cat.labels:
            assert cat.qdim[lab] >= 1.0 - 1e-12


def test_qdim_homomorphism(su24, so52):
    for cat in (su24, so52):
        for a in cat.labels:
            for b in cat.labels:
                total = sum(cat.qdim[c] for c in cat.fuse(a, b))
                assert abs(cat.qdim[a] * cat.qdim[b] - total) < 1e-9


def test_label_correspondence_is_fusion_isomorphism(su24, so52):
    # SO(3)_2 names -> SU(2)_4 integer labels
    mapping = {"1": "0", "z": "4", "eps": "1", "eps'": "3", "y": "2"}
    so3_rules = {
        ("eps", "eps"): {"1", "y"}, ("eps", "eps'"): {"z", "y"},
        ("eps", "y"): {"eps", "eps'"}, ("eps", "z"): {"eps'"},
        ("z", "z"): {"1"}, ("z", "y"): {"y"}, ("y", "y"): {"1", "z", "y"},
    }
    for (a, b), out in so3_rules.items():
        image = frozenset(mapping[c] for c in out)
        assert su24.fuse(mapping[a], mapping[b]) == image


def test_f_matrix_222(su24):
    s2 = math.sqrt(2)
    expected = np.array([[0.5, -1 / s2, 0.5], [-1 / s2, 0.0, 1 / s2], [0.5, 1 / s2, 0.5]])
    assert abs(su24.f("2", "2", "2", "2") - expected).max() < 1e-15


def test_f_matrix_unit_trivial(su24):
    mat = su24.f("0", "1", "1", "2")
    assert mat.shape == (1, 1) and mat[0, 0] == 1.0


def test_f_matrix_111(su24):
    s3 = math.sqrt(3)
    expected = np.array([[-1 / s3, math.sqrt(2 / 3)], [math.sqrt(2 / 3), 1 / s3]])
    assert abs(su24.f("1", "1", "1", "1") - expected).max() < 1e-15
    assert su24.f_rows("1", "1", "1", "1") == ("0", "2")


def test_f_inadmissible(su24):
    with pytest.raises(InadmissibleError):
        su24.f("4", "4", "4", "1")  # z x z x z has total eps'? no: charge 4*3 -> 4


def test_so52_r_example(so52):
    assert abs(so52.r("eps", "eps", "1") - (-1j)) < 1e-12


def test_so52_missing_entries(so52):
    assert not so52.has_f("z", "eps", "eps", "z")
    with pytest.raises(MissingDataError):
        so52.f("z", "eps", "eps", "z")
    with pytest.raises(MissingDataError):
        so52.r("y2", "y2", "1")


def test_r_moduli(su24, so52):
    for cat in (su24, so52):
        for value in cat.r_table.values():
            assert abs(abs(value) - 1.0) < 1e-12


def test_consistency_su24(su24):
    report = check_consistency(su24)
    assert report.pentagon_max < 1e-9
    assert report.pentagon_skipped == 0
    assert report.hexagon_max < 1e-9
    assert report.hexagon_skipped == 0
    assert report.unitarity_max < 1e-9
    assert report.r_modulus_max < 1e-12
    assert report.skips == 0


def test_consistency_so52_partial(so52):
    report = check_consistency(so52)
    assert report.skips > 0
    assert report.pentagon_max < 1e-9  # everything evaluable holds
    assert report.hexagon_max < 1e-9
    assert report.unitarity_max < 1e-9


def test_consistency_detects_corruption(su24):
    broken = dict(su24.f_table)
    key = ("2", "2", "2", "2")
    broken[key] = broken[key].copy()
    broken[key][0, 0] += 0.1
    from metaplectic.categories import Category
    cat = Category("broken", su24.labels, su24.qdim, su24.fusion, broken, su24.r_table)
    report = check_consistency(cat)
    assert report.pentagon_max > 1e-3 or report.unitarity_max > 1e-3


def _edited(cat, table, key, value, entry=(0, 0)):
    """A new category: ``cat`` with entry ``key`` of ``table`` set to
    ``value``; for ``"f"``, the given entry of the block."""
    if table == "f":
        block = cat.f_table[key].copy()
        block[entry] = value
        value = block
    name = {"f": "f_table", "r": "r_table", "qdim": "qdim"}[table]
    return dataclasses.replace(cat, **{name: {**getattr(cat, name), key: value}})


@pytest.mark.parametrize("table, key", [
    ("f", ("1", "2", "1", "2")), ("f", ("2", "2", "2", "2")), ("f", ("3", "3", "3", "3")),
    ("r", ("1", "1", "2")), ("qdim", "1")])
def test_consistency_propagates_nan(table, key, su24):
    cat = _edited(su24, table, key, complex(math.nan, 0.0) if table == "r" else math.nan)
    report = check_consistency(cat)
    reads = {"f": ("unitarity_max", "pentagon_max", "hexagon_max"),
             "r": ("r_modulus_max", "hexagon_max"),
             "qdim": ("dim_residual",)}[table]
    for name in ("dim_residual", "unitarity_max", "r_modulus_max", "pentagon_max",
                 "hexagon_max"):
        assert math.isnan(getattr(report, name)) == (name in reads), name
    assert report.skips == 0


_RESIDUALS = ("dim_residual", "unitarity_max", "r_modulus_max", "pentagon_max", "hexagon_max")


@pytest.fixture(scope="module")
def clean_report(su24):
    report = check_consistency(su24)
    assert report.passed()
    return report


@pytest.mark.parametrize("name", _RESIDUALS)
def test_consistency_verdict_fails_on_nan(clean_report, name):
    # the NaN is not the first of the residuals, where max() would drop it
    assert not dataclasses.replace(clean_report, **{name: math.nan}).passed()


@pytest.mark.parametrize("name, bound", [(name, 1e-12 if name == "r_modulus_max" else 1e-9)
                                         for name in _RESIDUALS])
def test_consistency_verdict_bounds_are_strict(clean_report, name, bound):
    assert not dataclasses.replace(clean_report, **{name: bound}).passed()
    assert dataclasses.replace(clean_report, **{name: math.nextafter(bound, 0)}).passed()


def test_consistency_verdict_bounds_r_moduli_alone(clean_report):
    """5e-10 is within the 1e-9 bound of every other residual, but not
    within the 1e-12 of the R moduli."""
    assert dataclasses.replace(clean_report, **{name: 5e-10 for name in _RESIDUALS
                                                if name != "r_modulus_max"}).passed()
    assert not dataclasses.replace(clean_report, r_modulus_max=5e-10).passed()


def test_consistency_reads_the_table_it_is_given(su24):
    key = ("1", "2", "1", "2")
    edited = _edited(su24, "f", key, su24.f_table[key][0, 1] + 0.1, (0, 1))
    assert check_consistency(edited).pentagon_max > 1e-3
    assert check_consistency(su24).pentagon_max < 1e-12


def test_category_data_is_read_only():
    """Every mapping field, every F-block and every label table refuses writes."""
    for build in BUILTIN_CATEGORIES.values():
        cat = build()  # a fresh object: a write that got through would reach no other test
        key = next(iter(cat.f_table))
        with pytest.raises(ValueError, match="read-only"):
            cat.f_table[key][0, 0] = 0.0
        for field, entry, value in (("f_table", key, np.ones((1, 1))),
                                    ("r_table", next(iter(cat.r_table)), 1.0),
                                    ("qdim", cat.unit, 1.0),
                                    ("fusion", (cat.unit, cat.unit), frozenset()),
                                    ("aliases", "new", cat.unit)):
            with pytest.raises(TypeError):
                getattr(cat, field)[entry] = value
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat.f_table = {}
        for name, array in vars(cat.tables).items():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_category_copies_what_it_is_built_from(su24):
    """Later writes into the dicts and arrays a category was built from do
    not reach it."""
    blocks = {key: mat.copy() for key, mat in su24.f_table.items()}
    r_table, qdim = dict(su24.r_table), dict(su24.qdim)
    cat = Category("su2_4-copy", su24.labels, qdim, su24.fusion, blocks, r_table)
    blocks[("2", "2", "2", "2")][0, 0] = math.nan
    r_table[("1", "1", "2")] = math.nan
    qdim["1"] = math.nan
    report = check_consistency(cat)
    assert max(report.dim_residual, report.r_modulus_max, report.pentagon_max) < 1e-12


@pytest.mark.parametrize("table, key", [("f", ("2", "2", "2", "2")), ("r", ("1", "1", "2")),
                                        ("qdim", "1")])
def test_categories_equal_rejects_nan(table, key, su24):
    value = complex(math.nan, 0.0) if table == "r" else math.nan
    edited = _edited(su24, table, key, value)
    assert not categories_equal(edited, su24) and not categories_equal(su24, edited)
    assert not categories_equal(edited, edited)


def test_categories_equal_holds_for_the_same_data(su24):
    assert categories_equal(su24, su24)
    assert categories_equal(su24, BUILTIN_CATEGORIES["su2_4"]())


def test_replaced_category_builds_its_own_tables(su24):
    """An edited ``dataclasses.replace`` copy reads its own tables: its
    check sees the edit, the original's does not."""
    key = ("1", "2", "1", "2")
    assert check_consistency(su24).pentagon_max < 1e-12  # su24's tables are built
    edited = _edited(su24, "f", key, su24.f_table[key][0, 1] + 0.1, (0, 1))
    assert edited.tables is not su24.tables
    at = (*map(su24.labels.index, key), 1, 3)  # entry [0, 1] of the block: rows 1, 3 x cols 1, 3
    assert edited.tables.f[at] == su24.tables.f[at] + 0.1
    assert check_consistency(edited).pentagon_max > 1e-3
    assert check_consistency(su24).pentagon_max < 1e-12


def test_category_rejects_misshapen_f_block(su24):
    """F[1,1,1;1] is 2 x 2; its four entries stored as 1 x 4 are refused,
    not scattered into the 2 x 2 positions."""
    key = ("1", "1", "1", "1")
    flat = su24.f_table[key].reshape(1, 4)
    with pytest.raises(ValueError, match=r"shape \(1, 4\).* 2 x 2"):
        dataclasses.replace(su24, f_table={**su24.f_table, key: flat})


def test_category_rejects_f_block_at_inadmissible_key(su24):
    key = ("1", "1", "1", "0")  # 1 x 1 x 1 = 1 + 3
    assert not su24.is_admissible_f(*key)
    with pytest.raises(ValueError, match="inadmissible"):
        dataclasses.replace(su24, f_table={**su24.f_table, key: np.ones((1, 1))})


def test_category_rejects_r_symbol_at_inadmissible_key(su24):
    key = ("1", "1", "1")  # 1 x 1 = 0 + 2
    with pytest.raises(ValueError, match="inadmissible"):
        dataclasses.replace(su24, r_table={**su24.r_table, key: 1.0})


def test_label_tables_built_once_per_category(monkeypatch):
    """Checks, enumeration, generators and basis changes on a category all
    read the one table build of that category object."""
    builds = []
    build = categories._label_tables
    monkeypatch.setattr(categories, "_label_tables",
                        lambda cat: builds.append(cat.name) or build(cat))
    for name, shape in (("su2_4", "((1 1)(1 (1 (1 1))))->2"),
                        ("so5_2", "((eps eps)(eps eps))->y1")):
        cat = BUILTIN_CATEGORIES[name]()  # a fresh object, with no tables yet
        check_consistency(cat)
        other = enumerate_basis(cat, parse_shape(cat, shape))
        leaf, total = other.shape.leaves[0], other.shape.total
        comb = enumerate_basis(cat, comb_tree(cat, other.shape.leaves, total))
        assert comb.dim == other.dim > 0
        general_generators(cat, comb)
        general_generators(cat, other)
        tree_change(cat, other, comb)
        pair_tree_generators(cat, leaf, total)
        check_consistency(cat)
        assert builds == [name]
        builds.clear()


def test_serialize_parse_round_trip(su24, so52):
    for cat in (su24, so52):
        text = serialize_category(cat)
        back = parse_category(text, name=cat.name)
        assert categories_equal(cat, back)


def test_parse_malformed_line_reports_lineno():
    text = "label a qdim 1.0\nfuse a a -> a\nF a a a = oops\n"
    with pytest.raises(CategoryFileError) as err:
        parse_category(text)
    assert "line 3" in str(err.value)


def test_parse_inadmissible_r():
    text = ("label 1 qdim 1.0\nlabel z qdim 1.0\n"
            "fuse 1 1 -> 1\nfuse 1 z -> z\nfuse z 1 -> z\nfuse z z -> 1\n"
            "R z z z = 1.0 0.0\n")
    with pytest.raises(CategoryFileError) as err:
        parse_category(text)
    assert "line 7" in str(err.value) and "inadmissible" in str(err.value)


def test_parse_truncated_f_line():
    good = serialize_category(builtin_category("su2_4"))
    lines = good.splitlines()
    f_index = next(i for i, l in enumerate(lines) if l.startswith("F "))
    lines[f_index] = lines[f_index].rsplit(" ", 2)[0]  # drop the value fields
    with pytest.raises(CategoryFileError) as err:
        parse_category("\n".join(lines))
    assert f"line {f_index + 1}" in str(err.value)


NON_FINITE_EDITS = [
    ("label 1 qdim ", "nan"),
    ("F 1 2 2 3 : 3 4 = ", "nan 0"),
    ("F 1 2 2 3 : 1 2 = ", "-0.7 inf"),
    ("R 1 1 0 = ", "-inf 0.7"),
]


@pytest.mark.parametrize("prefix, value", NON_FINITE_EDITS)
def test_parse_rejects_non_finite(prefix, value):
    lines = serialize_category(builtin_category("su2_4")).splitlines()
    index = next(i for i, l in enumerate(lines) if l.startswith(prefix))
    lines[index] = prefix + value
    with pytest.raises(CategoryFileError) as err:
        parse_category("\n".join(lines))
    assert f"line {index + 1}" in str(err.value) and "non-finite" in str(err.value)


def test_parse_unknown_label_reference():
    text = "label a qdim 1.0\nfuse a b -> a\n"
    with pytest.raises(CategoryFileError) as err:
        parse_category(text)
    assert "line 2" in str(err.value)


def test_aliases_resolve(su24, so52):
    assert su24.resolve("eps") == "1"
    assert su24.resolve("y") == "2"
    assert su24.resolve("unit") == "0"
    assert so52.resolve("y_1") == "y1"
    with pytest.raises(Exception):
        su24.resolve("nope")


def _typed_so5_2_table():
    """The so5_2 F-table typed block by block, all 156 keys, as
    ``_build_so5_2`` held it before it was typed once per symmetry orbit.
    Blocks of one group share one array; each is the transpose of the
    typed rows, stored C-contiguous."""
    s5 = math.sqrt(5)
    h = math.sqrt(10 - 2 * s5)
    k = math.sqrt(10 + 2 * s5)
    s2 = math.sqrt(2)
    gp = (s5 + 1) / 2
    gm = (s5 - 1) / 2

    hh = [[1 / s2, -1 / s2], [1 / s2, 1 / s2]]
    ph = [[1 / s2, 1 / s2], [1 / s2, -1 / s2]]
    sw = [[0.0, 1.0], [1.0, 0.0]]
    rt = [[1 / s2, 1 / s2], [-1 / s2, 1 / s2]]
    lt = [[-1 / s2, 1 / s2], [1 / s2, 1 / s2]]
    nb = [[-1 / s2, -1 / s2], [1 / s2, -1 / s2]]
    nf = [[1 / s2, -1 / s2], [-1 / s2, -1 / s2]]
    nn = [[-1 / s2, 1 / s2], [-1 / s2, -1 / s2]]
    j1 = [[-s5 * k * k / 40, h / 4], [h / 4, s5 * k * k / 40]]
    j2 = [[h / 4, s5 * k * k / 40], [s5 * k * k / 40, -h / 4]]
    j3 = [[s5 * h * h / 40, k / 4], [k / 4, -s5 * h * h / 40]]
    j4 = [[k / 4, -s5 * h * h / 40], [-s5 * h * h / 40, -s5 * h * k * k / 80]]
    j5 = [[s5 * k * k / 40, -h / 4], [-h / 4, -s5 * k * k / 40]]
    j6 = [[-s5 * h * h / 40, -s5 * h * k * k / 80], [-s5 * h * k * k / 80, s5 * h * h / 40]]
    j7 = [[-s5 * k * k / 40, -h / 4], [-h / 4, s5 * k * k / 40]]
    j8 = [[-h / 4, s5 * k * k / 40], [s5 * k * k / 40, h / 4]]
    j9 = [[s5 * k * k / 40, h / 4], [h / 4, -s5 * k * k / 40]]
    t2 = [[s5 * h / 10, s5 * k / 10], [s5 * k / 10, -s5 * h / 10]]
    u2 = [[-s5 * h / 10, -h * k * k / 40], [-h * k * k / 40, s5 * h / 10]]
    v3 = [[0.5, 0.5, 1 / s2], [0.5, 0.5, -1 / s2], [1 / s2, -1 / s2, 0.0]]
    w3 = [[1 / s5, s2 / s5, s2 / s5],
          [s2 / s5, -gp / s5, gm / s5],
          [s2 / s5, gm / s5, -gp / s5]]
    x3 = [[1 / s5, -s2 / s5, -s2 / s5],
          [s2 / s5, gp / s5, -gm / s5],
          [s2 / s5, -gm / s5, gp / s5]]
    y3 = [[-1 / s5, s2 / s5, s2 / s5],
          [s2 / s5, gp / s5, -gm / s5],
          [s2 / s5, -gm / s5, gp / s5]]
    z3 = [[1 / s5, s2 / s5, s2 / s5],
          [-s2 / s5, gp / s5, -gm / s5],
          [-s2 / s5, -gm / s5, gp / s5]]

    p, q = "eps", "eps'"
    groups = [
        (-1.0, [("z", "y1", "y1", "y2"), ("z", "y1", "y2", "y1"),
                ("z", "y2", "y1", "y1"), ("z", "y2", "y1", "y2"),
                ("z", p, "z", p), ("z", p, "y1", q), ("z", p, "y2", q),
                ("z", q, "z", q), ("z", q, "y1", p), ("z", q, "y2", p),
                ("y1", "z", "y1", "y2"), ("y1", "z", "y2", "y1"),
                ("y1", "y1", "z", "y2"), ("y1", "y1", "y2", "z"),
                ("y1", "y2", "z", "y1"), ("y1", "y2", "z", "y2"),
                ("y1", "y2", "y1", "z"), ("y1", p, "z", q), ("y1", q, "z", p),
                ("y2", "z", "y1", "y1"), ("y2", "z", "y2", "y1"),
                ("y2", "y1", "z", "y1"), ("y2", "y1", "y1", "z"),
                ("y2", "y1", "y2", "z"), ("y2", p, "z", q), ("y2", q, "z", p),
                (p, "z", p, "z"), (p, "z", q, "y1"), (p, "z", q, "y2"),
                (p, "y1", q, "z"), (p, "y2", q, "z"),
                (q, "z", p, "y1"), (q, "z", p, "y2"), (q, "z", q, "z"),
                (q, "y1", p, "z"), (q, "y2", p, "z")]),
        (hh, [("y1", "y1", "y2", "y2"), ("y1", "y1", p, q), ("y1", "y1", q, p),
              ("y1", p, p, "y2"), ("y2", "y2", "y1", "y1"), ("y2", p, p, "y1"),
              (p, "y1", "y2", p), (p, "y2", "y1", p), (p, q, "y1", "y1"),
              (q, p, "y1", "y1")]),
        (ph, [("y1", "y1", p, p), ("y1", "y1", q, q), ("y1", p, p, "y1"),
              ("y1", q, q, "y1"), ("y2", "y2", p, p), ("y2", "y2", p, q),
              ("y2", "y2", q, p), ("y2", "y2", q, q), ("y2", p, p, "y2"),
              ("y2", p, q, "y2"), ("y2", q, p, "y2"), ("y2", q, q, "y2"),
              (p, "y1", "y1", p), (p, "y2", "y2", p), (p, "y2", "y2", q),
              (p, p, "y1", "y1"), (p, p, "y2", "y2"), (p, q, "y2", "y2"),
              (q, "y1", "y1", q), (q, "y2", "y2", p), (q, "y2", "y2", q),
              (q, p, "y2", "y2"), (q, q, "y1", "y1"), (q, q, "y2", "y2")]),
        (sw, [("y1", "y2", "y1", "y2"), ("y2", "y1", "y2", "y1")]),
        (rt, [("y1", "y2", "y2", "y1"), ("y1", "y2", p, p), ("y1", p, q, "y1"),
              ("y1", q, p, "y1"), ("y2", "y1", "y1", "y2"), ("y2", "y1", p, p),
              (p, "y1", "y1", q), (p, p, "y1", "y2"), (p, p, "y2", "y1"),
              (q, "y1", "y1", p)]),
        (lt, [("y1", "y2", p, q), ("y1", q, p, "y2"), ("y2", "y1", q, p),
              ("y2", p, q, "y1"), (p, "y2", "y1", q), (p, q, "y1", "y2"),
              (q, "y1", "y2", p), (q, p, "y2", "y1")]),
        (nb, [("y1", "y2", q, p), ("y2", "y1", p, q), (p, q, "y2", "y1"),
              (q, p, "y1", "y2")]),
        (nf, [("y1", "y2", q, q), ("y1", q, q, "y2"), ("y2", "y1", q, q),
              ("y2", q, q, "y1"), (q, "y1", "y2", q), (q, "y2", "y1", q),
              (q, q, "y1", "y2"), (q, q, "y2", "y1")]),
        (j1, [("y1", p, "y1", p), (p, "y1", p, "y1")]),
        (j2, [("y1", p, "y1", q), ("y1", q, "y1", p), (p, "y1", q, "y1"),
              (q, "y1", p, "y1")]),
        (j3, [("y1", p, "y2", p), ("y2", p, "y1", p), (p, "y1", p, "y2"),
              (p, "y2", p, "y1")]),
        (j4, [("y1", p, "y2", q), ("y1", q, "y2", p), ("y2", p, "y1", q),
              ("y2", q, "y1", p), (p, "y1", q, "y2"), (p, "y2", q, "y1"),
              (q, "y1", p, "y2"), (q, "y2", p, "y1")]),
        (nn, [("y1", p, q, "y2"), ("y2", q, p, "y1"), (p, "y1", "y2", q),
              (q, "y2", "y1", p)]),
        (j5, [("y1", q, "y1", q), (q, "y1", q, "y1")]),
        (j6, [("y1", q, "y2", q), ("y2", q, "y1", q), (q, "y1", q, "y2"),
              (q, "y2", q, "y1")]),
        (j7, [("y2", p, "y2", p), (p, "y2", p, "y2")]),
        (j8, [("y2", p, "y2", q), ("y2", q, "y2", p), (p, "y2", q, "y2"),
              (q, "y2", p, "y2")]),
        (j9, [("y2", q, "y2", q), (q, "y2", q, "y2")]),
        (t2, [(p, p, p, q), (p, p, q, p), (p, q, p, p), (q, p, p, p)]),
        (u2, [(p, q, q, q), (q, p, q, q), (q, q, p, q), (q, q, q, p)]),
        (v3, [("y1", "y1", "y1", "y1"), ("y2", "y2", "y2", "y2")]),
        (w3, [(p, p, p, p), (q, q, q, q)]),
        (x3, [(p, p, q, q), (q, q, p, p)]),
        (y3, [(p, q, p, q), (q, p, q, p)]),
        (z3, [(p, q, q, p), (q, p, p, q)]),
    ]

    f_table = {}
    for value, keys in groups:
        mat = np.atleast_2d(np.asarray(value, dtype=complex)).T.copy()
        for key in keys:
            f_table[key] = mat
    return f_table



def test_so52_orbit_table_matches_typed_table(monkeypatch):
    typed = _typed_so5_2_table()
    reps = []
    closure = categories._symmetric_closure
    monkeypatch.setattr(categories, "_symmetric_closure",
                        lambda given: reps.append(len(given)) or closure(given))
    table = categories._build_so5_2().f_table
    assert reps == [36] and len(typed) == 156 and set(table) == set(typed)
    for key, mat in typed.items():
        assert table[key].shape == mat.shape, key
        assert table[key].tobytes() == mat.tobytes(), key
        assert table[key].flags.c_contiguous, key


def _d4_images(key, mat):
    """The four identities of ``_symmetric_closure`` applied to one block."""
    a, b, c, d = key
    return [((c, b, a, d), mat.T), ((d, c, b, a), mat), ((b, a, d, c), mat), ((c, d, a, b), mat)]


def test_su24_satisfies_the_orbit_identities(su24):
    compared = 0
    for key, mat in su24.f_table.items():
        for image, expected in _d4_images(key, mat):
            if image in su24.f_table:
                compared += 1
                assert abs(su24.f_table[image] - expected).max() < 1e-14, (key, image)
    assert compared == 470


def test_symmetric_closure_rejects_disagreeing_representatives():
    block = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    table = _symmetric_closure({("a", "b", "c", "d"): block, ("b", "c", "d", "a"): block.T})
    assert len(table) == 8
    assert np.array_equal(table[("c", "b", "a", "d")], block.T)
    with pytest.raises(AssertionError):  # F[b,a,d;c] must equal F[a,b,c;d]
        _symmetric_closure({("a", "b", "c", "d"): block, ("b", "a", "d", "c"): block + 1})
    with pytest.raises(AssertionError):  # F[a,b,a;d] is its own transpose
        _symmetric_closure({("a", "b", "a", "d"): block})


def test_consistency_counts_are_pinned(su24, so52):
    reports = [check_consistency(cat) for cat in (su24, so52)]
    assert [(r.pentagon_checked, r.pentagon_skipped, r.hexagon_checked, r.hexagon_skipped)
            for r in reports] == [(3307, 0, 225, 0), (7918, 6740, 75, 397)]


# The scalar loops that check_consistency ran before its stacked kernels,
# kept as references for _pentagon and _hexagon.


def _block(cat, cache, a, b, c, d):
    """(row index map, col index map, matrix or None-if-missing)."""
    key = (a, b, c, d)
    hit = cache.get(key)
    if hit is None:
        rows = cat.f_rows(*key)
        cols = cat.f_cols(*key)
        if rows and cols:
            mat = cat.f(*key) if cat.has_f(*key) else None
        else:
            mat = np.zeros((0, 0))
        hit = ({n: i for i, n in enumerate(rows)}, {m: j for j, m in enumerate(cols)}, mat)
        cache[key] = hit
    return hit


def loop_pentagon(cat):
    """Max residual of sum_s F[abc;v]_{us} F[asd;e]_{vt} F[bcd;t]_{sr}
    = F[ucd;e]_{vr} F[abr;e]_{ut} over all admissible instances.

    The loop ranges make every other index admissible; only ``e in u x r``,
    ``e in a x t`` and, per term of the sum, ``v in a x s`` and
    ``t in s x d`` can fail.
    """
    cache = {}
    fusion = cat.fusion

    def entry(a, b, c, d, row, col):
        rows, cols, mat = _block(cat, cache, a, b, c, d)
        if mat is None:
            raise MissingDataError(cat.name)
        return mat[rows[row], cols[col]]

    worst = 0.0
    checked = skipped = 0
    for a, b, c, d in itertools.product(cat.labels, repeat=4):
        for u in fusion[a, b]:
            for v in fusion[u, c]:
                for e in fusion[v, d]:
                    for r in fusion[c, d]:
                        if e not in fusion[u, r]:
                            continue
                        for t in fusion[b, r]:
                            if e not in fusion[a, t]:
                                continue
                            try:
                                lhs = 0.0
                                for s in fusion[b, c]:
                                    if v in fusion[a, s] and t in fusion[s, d]:
                                        lhs += (entry(a, b, c, v, u, s) * entry(a, s, d, e, v, t)
                                                * entry(b, c, d, t, s, r))
                                rhs = entry(u, c, d, e, v, r) * entry(a, b, r, e, u, t)
                            except MissingDataError:
                                skipped += 1
                                continue
                            checked += 1
                            worst = max(worst, abs(lhs - rhs))
    return worst, checked, skipped


def loop_hexagon(cat):
    """Residuals of F[abc;d] D(R^{bc}) F[acb;d]^-1 D(R^{ac}) F[cab;d]
    = D(R^{nc}_d), for both R orientations."""
    cache = {}
    worst = {False: 0.0, True: 0.0}
    checked = skipped = 0
    for a, b, c in itertools.product(cat.labels, repeat=3):
        for d in sorted({x for n in cat.fuse(a, b) for x in cat.fuse(n, c)}, key=cat.labels.index):
            try:
                r1, c1, f1 = _block(cat, cache, a, b, c, d)
                r2, c2, f2 = _block(cat, cache, a, c, b, d)
                r3, c3, f3 = _block(cat, cache, c, a, b, d)
                if f1 is None or f2 is None or f3 is None:
                    raise MissingDataError(cat.name)
                rbc = np.array([cat.r(b, c, m) for m in c1], dtype=complex)
                rac = np.array([cat.r(a, c, kk) for kk in r2], dtype=complex)
                rnc = np.array([cat.r(n, c, d) for n in r1], dtype=complex)
            except MissingDataError:
                skipped += 1
                continue
            checked += 1
            f2inv = f2.conj().T
            for invert in (False, True):
                rb, ra, rn = (rbc.conj(), rac.conj(), rnc.conj()) if invert else (rbc, rac, rnc)
                lhs = (f1 * rb) @ (f2inv * ra) @ f3
                res = abs(lhs - np.diag(rn)).max()
                worst[invert] = max(worst[invert], res)
    return worst[False], worst[True], checked, skipped


def reference_pentagon(cat):
    """The pentagon loop that tests all twelve admissibility conditions,
    kept as the reference that ``categories._pentagon`` must match bit for bit."""
    cache = {}
    worst = 0.0
    checked = skipped = 0
    labels = cat.labels
    for a in labels:
        for b in labels:
            for c in labels:
                for d in labels:
                    for u in cat.fuse(a, b):
                        for v in cat.fuse(u, c):
                            for e in cat.fuse(v, d):
                                rs = [r for r in cat.fuse(c, d) if e in cat.fuse(u, r)]
                                for r in rs:
                                    for t in cat.fuse(b, r):
                                        if e not in cat.fuse(a, t):
                                            continue
                                        try:
                                            lhs = 0.0
                                            r1, c1, m1 = _block(cat, cache, a, b, c, v)
                                            for s in cat.fuse(b, c):
                                                if u not in r1 or s not in c1:
                                                    continue
                                                r2, c2, m2 = _block(cat, cache, a, s, d, e)
                                                if v not in r2 or t not in c2:
                                                    continue
                                                r3, c3, m3 = _block(cat, cache, b, c, d, t)
                                                if s not in r3 or r not in c3:
                                                    continue
                                                if m1 is None or m2 is None or m3 is None:
                                                    raise MissingDataError(cat.name)
                                                lhs += (m1[r1[u], c1[s]]
                                                        * m2[r2[v], c2[t]]
                                                        * m3[r3[s], c3[r]])
                                            r4, c4, m4 = _block(cat, cache, u, c, d, e)
                                            r5, c5, m5 = _block(cat, cache, a, b, r, e)
                                            rhs = 0.0
                                            if v in r4 and r in c4 and u in r5 and t in c5:
                                                if m4 is None or m5 is None:
                                                    raise MissingDataError(cat.name)
                                                rhs = m4[r4[v], c4[r]] * m5[r5[u], c5[t]]
                                        except MissingDataError:
                                            skipped += 1
                                            continue
                                        checked += 1
                                        worst = max(worst, abs(lhs - rhs))
    return worst, checked, skipped


def _pentagon_cases():
    su24, so52 = builtin_category("su2_4"), builtin_category("so5_2")
    cases = [_su2_k(k) for k in range(1, 7)] + [su24, so52]
    fewer = dict(so52.f_table)
    del fewer[("y1", "y1", "y2", "y2")]
    cases.append(Category("so5_2-less", so52.labels, so52.qdim, so52.fusion, fewer,
                          so52.r_table))
    shifted = dict(su24.f_table)
    shifted[("1", "2", "1", "2")] = shifted[("1", "2", "1", "2")].copy()
    shifted[("1", "2", "1", "2")][0, 1] += 0.1
    cases.append(Category("su2_4-shifted", su24.labels, su24.qdim, su24.fusion, shifted,
                          su24.r_table))
    return cases


def test_pentagon_matches_reference():
    results = {}
    for cat in _pentagon_cases():
        worst, checked, skipped = results[cat.name] = _pentagon(_label_tables(cat))
        ref_worst, ref_checked, ref_skipped = reference_pentagon(cat)
        assert (checked, skipped) == (ref_checked, ref_skipped), cat.name
        assert float(worst).hex() == float(ref_worst).hex(), cat.name
        assert checked > 0
        loop_worst, loop_checked, loop_skipped = loop_pentagon(cat)
        assert (checked, skipped) == (loop_checked, loop_skipped), cat.name
        assert float(worst).hex() == float(loop_worst).hex(), cat.name
    assert results["so5_2-less"][2] > results["so5_2"][2]
    assert results["su2_4-shifted"][0] > 1e-3


def _hexagon_cases():
    su24, so52 = builtin_category("su2_4"), builtin_category("so5_2")
    turned = dict(su24.r_table)
    turned[("2", "3", "1")] *= cmath.exp(0.1j)
    fewer = dict(so52.r_table)
    del fewer[("eps", "eps", "y1")]
    return _pentagon_cases() + [
        Category("su2_4-turned", su24.labels, su24.qdim, su24.fusion, su24.f_table, turned),
        Category("so5_2-fewer-r", so52.labels, so52.qdim, so52.fusion, so52.f_table, fewer)]


def test_hexagon_matches_reference():
    """Both orientation maxima match the loop bit for bit on su2_4, so5_2
    and their variants.  The other su2_k are held to 1e-16 only: the
    stacked products are zero-padded to the largest block, and a BLAS
    kernel may round a padded product differently from the loop's."""
    near = {f"su2_{k}" for k in (1, 2, 3, 5, 6)}
    results = {}
    for cat in _hexagon_cases():
        *worst, checked, skipped = results[cat.name] = _hexagon(_label_tables(cat))
        *loop_worst, loop_checked, loop_skipped = loop_hexagon(cat)
        assert (checked, skipped) == (loop_checked, loop_skipped), cat.name
        assert checked > 0
        for value, loop_value in zip(worst, loop_worst):
            if cat.name in near:
                assert abs(value - loop_value) < 1e-16, cat.name
            else:
                assert float(value).hex() == float(loop_value).hex(), cat.name
    assert results["so5_2-fewer-r"][3] > results["so5_2"][3]
    assert min(results["su2_4-turned"][:2]) > 1e-3


def _su24_lines():
    return serialize_category(builtin_category("su2_4")).splitlines()


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


@pytest.mark.parametrize("prefix, message", [
    ("label 1 ", "repeated label '1'"),
    ("fuse 1 2 ", "repeated fuse line for (1,2)"),
    ("F 1 2 2 3 : 3 4 ", "repeated entry (3,4) of F('1', '2', '2', '3')"),
    ("R 1 1 0 ", "repeated R[1,1;0]"),
])
def test_parse_rejects_repeated_lines(prefix, message):
    lines = _su24_lines()
    index = _first(lines, prefix)
    lines.insert(index + 1, lines[index])
    with pytest.raises(CategoryFileError) as err:
        parse_category("\n".join(lines))
    assert str(err.value) == f"line {index + 2}: {message}"


def test_parse_rejects_contradicting_fuse_lines():
    lines = _su24_lines()
    index = _first(lines, "fuse 2 1 ")
    lines[index] = "fuse 2 1 -> 1"
    with pytest.raises(CategoryFileError) as err:
        parse_category("\n".join(lines))
    assert str(err.value) == f"line {index + 1}: fuse 2 1 contradicts fuse 1 2"


def test_parse_rejects_label_and_fuse_lines_after_the_data():
    lines = _su24_lines()
    for extra in ("label 5 qdim 1", "fuse 5 5 -> 0"):
        with pytest.raises(CategoryFileError) as err:
            parse_category("\n".join(lines + [extra]))
        kind = extra.split()[0]
        assert str(err.value) == f"line {len(lines) + 1}: {kind} line after the first F or R line"


def test_parse_rejects_a_first_label_that_is_not_the_unit():
    lines = _su24_lines()
    first = _first(lines, "label ")
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    with pytest.raises(CategoryFileError) as err:
        parse_category("\n".join(lines))
    assert str(err.value) == "line 0: first label '1' is not the unit"


def test_parse_rejects_a_file_without_labels():
    for text in ("", "# category: nothing\n\n"):
        with pytest.raises(CategoryFileError) as err:
            parse_category(text)
        assert str(err.value) == "line 0: no label line"


@pytest.mark.parametrize("category, edit, message", [
    ("su2_4", ("append", "F 0 1 1 2 : 1 2 = -1 0"),
     "F('0', '1', '1', '2') has the unit among a, b, c and must be (1)"),
    ("su2_4", ("replace", "R 1 0 1 = 1 0", "R 1 0 1 = -1 0"),
     "R[1,0;1] has a unit anyon and must be 1"),
    ("so5_2", ("append", "R 1 eps eps = -1 0"), "R[1,eps;eps] has a unit anyon and must be 1"),
])
def test_parse_rejects_unit_entries_off_the_convention(category, edit, message):
    """Lookups synthesize these entries as (1) and 1, so another value in a
    file would be stored and never checked."""
    lines = serialize_category(builtin_category(category)).splitlines()
    if edit[0] == "append":
        lines.append(edit[1])
    else:
        lines[lines.index(edit[1])] = edit[2]
    index = len(lines) - 1 if edit[0] == "append" else lines.index(edit[2])
    with pytest.raises(CategoryFileError) as err:
        parse_category("\n".join(lines))
    assert str(err.value) == f"line {index + 1}: {message}"


def test_parse_accepts_unit_entries_on_the_convention():
    lines = _su24_lines() + ["F 0 1 1 2 : 1 2 = 1 0", "R 0 0 0 = 1 -0"]
    lines.remove("R 0 0 0 = 1 0")
    cat = parse_category("\n".join(lines))
    assert cat.f_table[("0", "1", "1", "2")].tolist() == [[1]] and cat.r_table[("0", "0", "0")] == 1
