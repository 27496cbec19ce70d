"""Modular-category data for the two shipped anyon theories.

This module holds the fusion rules, quantum dimensions, F-matrices (6j
symbols) and R-symbols for SU(2)_4 (= SO(3)_2) and SO(5)_2, together with
pentagon/hexagon/unitarity consistency checks and a line-oriented file
format.  :data:`BUILTIN_CATEGORIES` is the one list of shipped names.

SU(2)_k is evaluated from its closed form (Kirillov-Reshetikhin q-6j
symbols, in the conventions of Bonderson's 2007 thesis), not typed in.
Labels are twice the spin, ``0..k``; ``q = exp(2 pi i/(k+2))`` and
``[n] = sin(n pi/(k+2)) / sin(pi/(k+2))``:

* ``qdim(j) = [j+1]``;
* ``a x b = {|a-b|, |a-b|+2, ..., min(a+b, 2k-a-b)}``;
* ``F[a,b,c;d]_{e,f} = (-1)^((a+b+c+d)/2) sqrt([e+1][f+1]) {a b e; c d f}_q``;
* ``R[a,b;c] = (-1)^((a+b-c)/2) q^((h_c-h_a-h_b)/2)`` with ``h_j = j(j+2)/4``.

The q-Racah sum stops at ``z = k``: every later term holds ``[k+2] = 0``.
At ``k = 4`` this is the gauge of the paper's printed SU(2)_4 tables,
which it reproduces entrywise to round-off.

SO(5)_2 is transcribed once per symmetry orbit: its 156 stored F-blocks
fall into 36 orbits of ``F[c,b,a;d] = F[a,b,c;d]^T`` and
``F[d,c,b;a] = F[b,a,d;c] = F[c,d,a;b] = F[a,b,c;d]``, so one block per
orbit is typed and the rest are derived.  The su2_4 closed form satisfies
the same identities to round-off wherever both blocks are stored.

Conventions
-----------
* An F-matrix ``F[a,b,c;d]`` is the change of basis between the two fusion
  orders of three anyons with total charge ``d``.  Rows are indexed by the
  left-associated internal charge ``n`` (``n`` in ``a x b`` with ``d`` in
  ``n x c``), columns by the right-associated charge ``m`` (``m`` in
  ``b x c`` with ``d`` in ``a x m``).  Index sets are sorted in the
  category's canonical label order.
* ``F[a,b,c;d] = (1)`` whenever one of ``a, b, c`` is the unit and the
  tuple is admissible; such blocks are synthesized on access, never stored.
* An R-symbol ``R[a,b;c]`` is the phase acquired when two anyons fusing to
  ``c`` are exchanged once (positive crossing).  ``R[1,a;a] = R[a,1;a] = 1``.
* SO(5)_2 data is deliberately partial: looking up an absent entry raises
  :class:`MissingDataError` instead of guessing, and the consistency
  checker skips (and counts) equations it cannot evaluate.

All categories here are multiplicity-free (every fusion coefficient is 0
or 1), and every label is self-dual.

A :class:`Category` is immutable, so it builds its dense arrays indexed
by label position (:attr:`Category.tables`) when it is made: a 0/1
fusion tensor, masks of each F-block's admissible rows and columns, an F
tensor ``F[a,b,c,d,row,col]`` (unit blocks written as 1 at their one
admissible position), an R tensor, and masks of the admissible F-blocks
and R-symbols that are not stored.  Every F- and R-number the engine
computes with, and every admissibility test, is read from them.

Consistency checks
------------------
Two kernels of :func:`check_consistency` evaluate every pentagon and
hexagon instance on them as stacked array operations, with no Python
loop per equation: the pentagon instances are enumerated by
``np.nonzero`` joins on the fusion tensor and their entries gathered by
fancy indexing, in chunks over the first label; the hexagon instances
are stacked as zero-padded blocks and multiplied as one batch.  Sums run
over fusion outcomes in canonical label order, so the residuals do not
depend on the order in which a set yields its labels.
An instance is skipped, and counted, iff an F-block or R-symbol it reads
is missing; a NaN in an entry makes every residual that reads it NaN.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "BUILTIN_CATEGORIES",
    "Category",
    "CategoryError",
    "UnknownLabelError",
    "InadmissibleError",
    "MissingDataError",
    "CategoryFileError",
    "ConsistencyReport",
    "builtin_category",
    "check_consistency",
    "serialize_category",
    "parse_category",
    "categories_equal",
]


class CategoryError(Exception):
    """Base class for category-data errors."""


class UnknownLabelError(CategoryError):
    """A label name that the category does not define."""


class InadmissibleError(CategoryError):
    """An F/R lookup whose index tuple violates the fusion rules."""


class MissingDataError(CategoryError):
    """An admissible F/R entry that the (partial) tables do not provide."""


class CategoryFileError(CategoryError):
    """Malformed category file; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Category:
    """Immutable bundle of labels, fusion rules, F-matrices and R-symbols.

    ``labels`` fixes the canonical order used for all row/column index
    sets; the unit label comes first.  ``f_table``/``r_table`` hold the
    stored entries, which may involve the unit: su2_4 stores its 22
    F-blocks of unit total charge and its 9 R-symbols with a unit anyon.
    An F-block with the unit among ``a, b, c`` or an R-symbol with a unit
    anyon need not be stored; lookups synthesize it as (1) or 1, and
    :func:`parse_category` accepts it in a file only with that value.  The
    dicts are kept as read-only copies, the F-blocks as read-only arrays:
    an edited category is a new one, made with ``dataclasses.replace``.
    Making one raises ``ValueError`` for a stored F-block or R-symbol that
    the fusion rules do not admit (see :func:`_label_tables`).
    """

    name: str
    labels: tuple
    qdim: dict
    fusion: dict  # (a, b) -> frozenset of outcomes
    f_table: dict  # (a, b, c, d) -> complex ndarray
    r_table: dict  # (a, b, c) -> complex
    aliases: dict = field(default_factory=dict)
    tables: _LabelTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = {key: _read_only(np.array(mat)) for key, mat in self.f_table.items()}
        for name, value in (("qdim", self.qdim), ("fusion", self.fusion), ("f_table", blocks),
                            ("r_table", self.r_table), ("aliases", self.aliases)):
            object.__setattr__(self, name, MappingProxyType(dict(value)))
        object.__setattr__(self, "tables", _label_tables(self))

    @property
    def unit(self):
        return self.labels[0]

    def resolve(self, label):
        """Map a label or alias to its canonical name."""
        name = str(label)
        if name in self.qdim:
            return name
        if name in self.aliases:
            return self.aliases[name]
        raise UnknownLabelError(f"{self.name}: unknown label {label!r}")

    def fuse(self, a, b):
        """Fusion outcomes of ``a x b`` as a frozenset."""
        return self.fusion[(self.resolve(a), self.resolve(b))]

    def outcomes(self, a, b):
        """Fusion outcomes of ``a x b`` in canonical label order."""
        return self._listed(self.tables.fusion, a, b)

    def f_rows(self, a, b, c, d):
        """Admissible row labels of F[a,b,c;d] in canonical order."""
        return self._listed(self.tables.rows, a, b, c, d)

    def f_cols(self, a, b, c, d):
        """Admissible column labels of F[a,b,c;d] in canonical order."""
        return self._listed(self.tables.cols, a, b, c, d)

    def is_admissible_f(self, a, b, c, d):
        return bool(self.f_rows(a, b, c, d)) and bool(self.f_cols(a, b, c, d))

    def _listed(self, mask, *labels):
        """The labels at which ``mask[labels]`` holds, in canonical order."""
        at = tuple(self.labels.index(self.resolve(x)) for x in labels)
        return tuple(self.labels[m] for m in np.flatnonzero(mask[at]))

    def has_f(self, a, b, c, d):
        """True if F[a,b,c;d] is admissible and available."""
        key = tuple(map(self.resolve, (a, b, c, d)))
        if not self.is_admissible_f(*key):
            return False
        return self.unit in key[:3] or key in self.f_table

    def f(self, a, b, c, d):
        """The F-matrix as a dense array.

        Raises :class:`InadmissibleError` for tuples the fusion rules
        forbid and :class:`MissingDataError` for admissible entries absent
        from a partial table.
        """
        key = tuple(map(self.resolve, (a, b, c, d)))
        if not self.is_admissible_f(*key):
            raise InadmissibleError(f"{self.name}: inadmissible F{key}")
        if self.unit in key[:3]:
            return np.ones((1, 1), dtype=complex)
        if key not in self.f_table:
            raise MissingDataError(f"{self.name}: no stored F-matrix for {key}")
        return self.f_table[key]

    def r(self, a, b, c):
        """The R-symbol R[a,b;c] (a unit-modulus complex number)."""
        a, b, c = map(self.resolve, (a, b, c))
        if c not in self.fuse(a, b):
            raise InadmissibleError(f"{self.name}: inadmissible R[{a},{b};{c}]")
        if self.unit in (a, b):
            return complex(1.0)
        if (a, b, c) not in self.r_table:
            raise MissingDataError(f"{self.name}: no stored R-symbol for ({a},{b};{c})")
        return self.r_table[(a, b, c)]

    def _raise_missing(self, lookup, missing, *at):
        """Raise via ``lookup`` at the positions ``at`` where ``missing`` first holds."""
        missing, *at = np.broadcast_arrays(missing, *at)
        for first in np.flatnonzero(missing)[:1]:
            lookup(*(self.labels[v.flat[first]] for v in at))


def _read_only(array):
    array.setflags(write=False)
    return array


def _symmetrized_fusion(labels, rules):
    """Close a fusion-rule dict under commutativity and check coverage."""
    table = {}
    for (a, b), out in rules.items():
        table[(a, b)] = frozenset(out)
        table.setdefault((b, a), frozenset(out))
    for a in labels:
        for b in labels:
            if (a, b) not in table:
                raise ValueError(f"fusion rule missing for ({a},{b})")
    return table


def _su2_k(k, aliases=None):
    """SU(2)_k from the q-Racah closed form; labels are twice the spin."""
    qint = [math.sin(n * math.pi / (k + 2)) / math.sin(math.pi / (k + 2)) for n in range(k + 2)]
    fact = [math.prod(qint[1:n + 1]) for n in range(k + 2)]  # [n]!; [k+2] = 0 ends longer ones
    h = [j * (j + 2) / 4 for j in range(k + 1)]

    def fuse(a, b):
        return range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)

    def delta(a, b, c):
        return math.sqrt(fact[(a + b - c) // 2] * fact[(a - b + c) // 2]
                         * fact[(b + c - a) // 2] / fact[(a + b + c) // 2 + 1])

    def six_j(a, b, e, c, d, f):
        """{a b e; c d f}_q in the Kirillov-Reshetikhin form."""
        tri = [(a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2]
        quad = [(a + b + c + d) // 2, (a + c + e + f) // 2, (b + d + e + f) // 2]
        total = 0.0
        for z in range(max(tri), min(*quad, k) + 1):
            den = math.prod(fact[z - t] for t in tri) * math.prod(fact[s - z] for s in quad)
            total += (-1) ** z * fact[z + 1] / den
        return delta(a, b, e) * delta(e, c, d) * delta(b, c, f) * delta(a, f, d) * total

    f_table = {}
    for a, b, c in itertools.product(range(1, k + 1), repeat=3):
        for d in range(k + 1):
            rows = [e for e in fuse(a, b) if d in fuse(e, c)]
            cols = [f for f in fuse(b, c) if d in fuse(a, f)]
            if rows and cols:
                sign = (-1) ** ((a + b + c + d) // 2)
                f_table[tuple(map(str, (a, b, c, d)))] = np.array(
                    [[sign * math.sqrt(qint[e + 1] * qint[f + 1]) * six_j(a, b, e, c, d, f)
                      for f in cols] for e in rows], dtype=complex)
    r_table = {
        (str(a), str(b), str(c)): (-1) ** ((a + b - c) // 2)
        * cmath.exp(1j * math.pi * (h[c] - h[a] - h[b]) / (k + 2))
        for a in range(k + 1) for b in range(k + 1) for c in fuse(a, b)}
    labels = tuple(str(j) for j in range(k + 1))
    qdim = {str(j): qint[j + 1] for j in range(k + 1)}
    fusion = {(str(a), str(b)): frozenset(map(str, fuse(a, b)))
              for a in range(k + 1) for b in range(k + 1)}
    return Category(f"su2_{k}", labels, qdim, fusion, f_table, r_table, aliases=aliases or {})


def _symmetric_closure(reps):
    """Expand one F-block per orbit of the index symmetries into a table.

    The symmetries are:

    * ``F[c,b,a;d] = F[a,b,c;d]^T``;
    * ``F[d,c,b;a] = F[b,a,d;c] = F[c,d,a;b] = F[a,b,c;d]``.

    Every image is stored as its own C-contiguous copy.  Raises
    ``AssertionError`` when two routes reach one block with matrices that
    differ in shape or in any bit.
    """
    table = {}
    for key, mat in reps.items():
        a, b, c, d = key
        for (a, b, c, d), image in ((key, mat), ((c, b, a, d), mat.T)):
            for image_key in ((a, b, c, d), (d, c, b, a), (b, a, d, c), (c, d, a, b)):
                stored = table.setdefault(image_key, image.copy())
                if stored.shape != image.shape or stored.tobytes() != image.tobytes():
                    raise AssertionError(f"F{image_key}: two routes give different blocks")
    return table


def _build_so5_2():
    """SO(5)_2 with labels {1, z, y1, y2, eps, eps'}; tables are partial."""
    labels = ("1", "z", "y1", "y2", "eps", "eps'")
    s5 = math.sqrt(5)
    qdim = {"1": 1.0, "z": 1.0, "y1": 2.0, "y2": 2.0, "eps": s5, "eps'": s5}
    rules = {
        ("1", "1"): {"1"}, ("1", "z"): {"z"}, ("1", "y1"): {"y1"},
        ("1", "y2"): {"y2"}, ("1", "eps"): {"eps"}, ("1", "eps'"): {"eps'"},
        ("z", "z"): {"1"}, ("z", "y1"): {"y1"}, ("z", "y2"): {"y2"},
        ("z", "eps"): {"eps'"}, ("z", "eps'"): {"eps"},
        ("y1", "y1"): {"1", "z", "y2"}, ("y1", "y2"): {"y1", "y2"},
        ("y2", "y2"): {"1", "z", "y1"},
        ("y1", "eps"): {"eps", "eps'"}, ("y1", "eps'"): {"eps", "eps'"},
        ("y2", "eps"): {"eps", "eps'"}, ("y2", "eps'"): {"eps", "eps'"},
        ("eps", "eps"): {"1", "y1", "y2"}, ("eps", "eps'"): {"z", "y1", "y2"},
        ("eps'", "eps'"): {"1", "y1", "y2"},
    }
    fusion = _symmetrized_fusion(labels, rules)

    h = math.sqrt(10 - 2 * s5)
    k = math.sqrt(10 + 2 * s5)
    s2 = math.sqrt(2)
    gp = (s5 + 1) / 2
    gm = (s5 - 1) / 2

    hh = [[1 / s2, -1 / s2], [1 / s2, 1 / s2]]
    ph = [[1 / s2, 1 / s2], [1 / s2, -1 / s2]]
    sw = [[0.0, 1.0], [1.0, 0.0]]
    lt = [[-1 / s2, 1 / s2], [1 / s2, 1 / s2]]
    nb = [[-1 / s2, -1 / s2], [1 / s2, -1 / s2]]
    nf = [[1 / s2, -1 / s2], [-1 / s2, -1 / s2]]
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

    # one key per symmetry orbit; _symmetric_closure fills in the rest
    p, q = "eps", "eps'"
    groups = [
        (-1.0, [("z", "y1", "y1", "y2"), ("z", "y1", "y2", "y1"), ("z", "y2", "y1", "y2"),
                ("z", p, "z", p), ("z", p, "y1", q), ("z", p, "y2", q), ("z", q, "z", q)]),
        (hh, [("y1", "y1", "y2", "y2"), ("y1", "y1", p, q), ("y1", p, p, "y2")]),
        (ph, [("y1", "y1", p, p), ("y1", "y1", q, q), ("y2", "y2", p, p),
              ("y2", "y2", p, q), ("y2", "y2", q, q)]),
        (sw, [("y1", "y2", "y1", "y2")]),
        (lt, [("y1", "y2", p, q)]),
        (nb, [("y1", "y2", q, p)]),
        (nf, [("y1", "y2", q, q)]),
        (j1, [("y1", p, "y1", p)]),
        (j2, [("y1", p, "y1", q)]),
        (j3, [("y1", p, "y2", p)]),
        (j4, [("y1", p, "y2", q)]),
        (j5, [("y1", q, "y1", q)]),
        (j6, [("y1", q, "y2", q)]),
        (j7, [("y2", p, "y2", p)]),
        (j8, [("y2", p, "y2", q)]),
        (j9, [("y2", q, "y2", q)]),
        (t2, [(p, p, p, q)]),
        (u2, [(p, q, q, q)]),
        (v3, [("y1", "y1", "y1", "y1"), ("y2", "y2", "y2", "y2")]),
        (w3, [(p, p, p, p), (q, q, q, q)]),
        (x3, [(p, p, q, q)]),
        (y3, [(p, q, p, q)]),
    ]
    f_table = _symmetric_closure({key: np.atleast_2d(np.asarray(value, dtype=complex)).T
                                  for value, keys in groups for key in keys})

    pi = math.pi
    r_table = {
        ("y1", "y1", "1"): cmath.exp(6j * pi / 5),
        ("y1", "y1", "z"): cmath.exp(1j * pi / 5),
        ("y1", "y1", "y2"): cmath.exp(4j * pi / 5),
        ("eps", "eps", "1"): -1j,
        ("eps", "eps", "y1"): cmath.exp(11j * pi / 10),
        ("eps", "eps", "y2"): cmath.exp(-1j * pi / 10),
    }

    return Category("so5_2", labels, qdim, fusion, f_table, r_table,
                    aliases={"y_1": "y1", "y_2": "y2", "epsp": "eps'", "unit": "1"})


BUILTIN_CATEGORIES = {
    "su2_4": lambda: _su2_k(4, aliases={"eps": "1", "eps'": "3", "y": "2", "z": "4", "unit": "0"}),
    "so5_2": _build_so5_2,
}
"""Builders of the shipped categories, by name; the one list of their names."""


@lru_cache(maxsize=None)
def builtin_category(name):
    """Return one of the shipped categories named in :data:`BUILTIN_CATEGORIES`."""
    if name not in BUILTIN_CATEGORIES:
        raise ValueError(f"unknown category {name!r} "
                         f"(expected one of {', '.join(BUILTIN_CATEGORIES)})")
    return BUILTIN_CATEGORIES[name]()


# ---------------------------------------------------------------------------
# consistency checks


@dataclass
class ConsistencyReport:
    category: str
    dim_residual: float
    unitarity_max: float
    r_modulus_max: float
    pentagon_max: float
    pentagon_checked: int
    pentagon_skipped: int
    hexagon_max: float
    hexagon_checked: int
    hexagon_skipped: int
    hexagon_orientation: str

    @property
    def skips(self):
        return self.pentagon_skipped + self.hexagon_skipped


@dataclass(frozen=True)
class _LabelTables:
    """A category's data as read-only dense arrays indexed by label position.

    ``n`` labels in canonical order, the unit at 0:

    * ``fusion[a, b, c]``: ``c in a x b``;
    * ``rows[a, b, c, d, m]`` / ``cols[a, b, c, d, m]``: ``m`` is a row
      (``m in a x b``, ``d in m x c``) / a column (``m in b x c``,
      ``d in a x m``) of F[a,b,c;d];
    * ``f[a, b, c, d, row, col]``: the F-entries at admissible positions,
      0 elsewhere; a unit block holds 1 at its one admissible position;
    * ``f_missing[a, b, c, d]``: F[a,b,c;d] is admissible but not stored;
    * ``r[a, b, c]`` / ``r_missing[a, b, c]``: the same for R-symbols.
    """

    fusion: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    f: np.ndarray
    f_missing: np.ndarray
    r: np.ndarray
    r_missing: np.ndarray


def _label_tables(cat):
    """Build :class:`_LabelTables` from ``cat``; one pass over its dicts.
    Raises ``ValueError`` for a stored F-block whose shape is not its
    admissible rows x columns (an inadmissible key has none) or an
    R-symbol stored at an inadmissible (a, b; c)."""
    index = {lab: i for i, lab in enumerate(cat.labels)}
    n = len(index)
    fusion = np.zeros((n,) * 3, dtype=bool)
    for (a, b), out in cat.fusion.items():
        fusion[index[a], index[b], [index[c] for c in out]] = True

    # rows[a,b,c,d,m] = N[a,b,m] N[m,c,d]; cols[a,b,c,d,m] = N[b,c,m] N[a,m,d]
    rows = fusion[:, :, None, None, :] & fusion.transpose(1, 2, 0)[None, None]
    cols = fusion[None, :, :, None, :] & fusion.transpose(0, 2, 1)[:, None, None]
    admissible = rows.any(-1) & cols.any(-1)
    has_unit = np.zeros((n,) * 4, dtype=bool)
    has_unit[0], has_unit[:, 0], has_unit[:, :, 0] = True, True, True

    # each block's entries, raveled, fill its admissible positions in row-major order
    at = tuple(np.array([[index[x] for x in key] for key in cat.f_table], dtype=np.intp)
               .reshape(-1, 4).T)
    shapes = zip(rows[at].sum(-1).tolist(), cols[at].sum(-1).tolist())
    for (key, mat), shape in zip(cat.f_table.items(), shapes):
        if 0 in shape:
            raise ValueError(f"{cat.name}: F-block stored at inadmissible F{key}")
        if mat.shape != shape:
            raise ValueError(f"{cat.name}: stored F{key} has shape {mat.shape}, but its "
                             f"admissible rows x columns are {shape[0]} x {shape[1]}")
    block, i, j = np.nonzero(rows[at][:, :, None] & cols[at][:, None, :])
    f = np.zeros((n,) * 6, dtype=complex)
    f[(*(x[block] for x in at), i, j)] = np.concatenate(
        [np.zeros(0, dtype=complex)] + [mat.ravel() for mat in cat.f_table.values()])
    f[has_unit] = rows[has_unit][:, :, None] & cols[has_unit][:, None, :]
    stored = np.zeros((n,) * 4, dtype=bool)
    stored[at] = True

    r = np.zeros((n, n, n), dtype=complex)
    r_stored = np.zeros((n, n, n), dtype=bool)
    for key, value in cat.r_table.items():
        at = tuple(index[x] for x in key)
        if not fusion[at]:
            raise ValueError(f"{cat.name}: R-symbol stored at inadmissible R{key}")
        r[at], r_stored[at] = value, True
    r_stored[0], r_stored[:, 0] = True, True
    r[0], r[:, 0] = fusion[0], fusion[:, 0]
    return _LabelTables(*map(_read_only, (fusion, rows, cols, f, admissible & ~has_unit & ~stored,
                                          r, fusion & ~r_stored)))


def _pentagon(tables):
    """Max residual of sum_s F[abc;v]_{us} F[asd;e]_{vt} F[bcd;t]_{sr}
    = F[ucd;e]_{vr} F[abr;e]_{ut} over all admissible instances.

    The instances (a,b,c,d,u,v,e,r,t) are enumerated by ``np.nonzero``
    joins on the fusion tensor, one chunk per label ``a``: u in a x b,
    v in u x c, e in v x d, r in c x d with e in u x r, t in b x r with
    e in a x t.  The sum over s runs over b x c in canonical label order,
    each term ``(F1 F2) F3`` masked by ``v in a x s`` and ``t in s x d``,
    so every residual has the bits of a scalar loop in that order.  An
    instance is skipped iff a block it reads is missing.
    """
    N, F, missing = tables.fusion, tables.f, tables.f_missing
    # slots[b, c, k]: the k-th outcome of b x c in label order, -1 past the last
    order = np.argsort(~N, axis=-1, kind="stable")[..., :N.sum(-1).max()]
    slots = np.where(np.take_along_axis(N, order, -1), order, -1)
    worst = [0.0]
    checked = skipped = 0
    for a in range(len(N)):
        b, u = np.nonzero(N[a])
        i, c, v = np.nonzero(N[u])
        b, u = b[i], u[i]
        i, d, e = np.nonzero(N[v])
        b, u, c, v = b[i], u[i], c[i], v[i]
        i, r = np.nonzero(N[c, d] & N[u, :, e])
        b, u, c, v, d, e = b[i], u[i], c[i], v[i], d[i], e[i]
        i, t = np.nonzero(N[b, r] & N[a, :, e])
        b, u, c, v, d, e, r = b[i], u[i], c[i], v[i], d[i], e[i], r[i]

        skip = missing[u, c, d, e] | missing[a, b, r, e]
        missing13 = missing[a, b, c, v] | missing[b, c, d, t]  # F1, F3 do not depend on s
        lhs = np.zeros(len(t), dtype=complex)
        for s in slots[b, c].T:
            term = (s >= 0) & N[a, s, v] & N[s, d, t]
            skip |= term & (missing13 | missing[a, s, d, e])
            lhs += np.where(term, F[a, b, c, v, u, s] * F[a, s, d, e, v, t]
                            * F[b, c, d, t, s, r], 0)
        diff = lhs - F[u, c, d, e, v, r] * F[a, b, r, e, u, t]
        worst.append(np.hypot(diff.real, diff.imag)[~skip].max(initial=0.0))
        n_skip = int(skip.sum())
        skipped += n_skip
        checked += len(skip) - n_skip
    return float(np.max(worst)), checked, skipped


def _hexagon(tables):
    """Residuals of F[abc;d] D(R^{bc}) F[acb;d]^-1 D(R^{ac}) F[cab;d]
    = D(R^{nc}_d), for both R orientations.

    The instances (a,b,c,d), d in (a x b) x c, are stacked as w x w
    blocks, w the largest block dimension: each block holds its
    admissible rows and columns in canonical order, then zero padding,
    so every product has the bits of the unpadded one.  An instance is
    skipped iff an F-block or an R-symbol it reads is missing.
    """
    N, F, R = tables.fusion, tables.f, tables.r
    f_missing, r_missing = tables.f_missing, tables.r_missing
    n = len(N)
    reach = (N.reshape(n * n, n).astype(np.int64) @ N.reshape(n, n * n)).reshape((n,) * 4) > 0
    a, b, c, d = np.nonzero(reach)
    rows1, cols1 = tables.rows[a, b, c, d], tables.cols[a, b, c, d]
    rows2 = tables.rows[a, c, b, d]
    skip = (f_missing[a, b, c, d] | f_missing[a, c, b, d] | f_missing[c, a, b, d]
            | (cols1 & r_missing[b, c]).any(1) | (rows2 & r_missing[a, c]).any(1)
            | (rows1 & r_missing[:, c, d].T).any(1))
    keep = ~skip
    a, b, c, d, rows1, cols1, rows2 = (x[keep] for x in (a, b, c, d, rows1, cols1, rows2))

    w = max(int(mask.sum(1).max(initial=1)) for mask in (rows1, cols1, rows2))
    order1, order_c, order2 = (np.argsort(~mask, axis=1, kind="stable")[:, :w]
                               for mask in (rows1, cols1, rows2))
    A, B, C, D = (x[:, None, None] for x in (a, b, c, d))
    f1 = F[A, B, C, D, order1[:, :, None], order_c[:, None, :]]
    f2 = F[A, C, B, D, order2[:, :, None], order_c[:, None, :]]
    f3 = F[C, A, B, D, order2[:, :, None], order1[:, None, :]]
    f2inv = f2.conj().swapaxes(1, 2)
    a, b, c, d = (x[:, None] for x in (a, b, c, d))
    rbc = np.where(np.take_along_axis(cols1, order_c, 1), R[b, c, order_c], 0)
    rac = np.where(np.take_along_axis(rows2, order2, 1), R[a, c, order2], 0)
    rnc = np.where(np.take_along_axis(rows1, order1, 1), R[order1, c, d], 0)
    diag = np.arange(w)
    worst = {}
    for invert in (False, True):
        rb, ra, rn = (rbc.conj(), rac.conj(), rnc.conj()) if invert else (rbc, rac, rnc)
        lhs = (f1 * rb[:, None, :]) @ (f2inv * ra[:, None, :]) @ f3
        lhs[:, diag, diag] -= rn
        worst[invert] = float(np.abs(lhs).max(initial=0.0))
    n_skip = int(skip.sum())
    return worst[False], worst[True], len(skip) - n_skip, n_skip


def check_consistency(cat):
    """Evaluate every checkable pentagon/hexagon instance plus the
    unitarity, R-modulus and quantum-dimension invariants.

    All pentagon and hexagon instances are evaluated as stacked array
    operations (:func:`_pentagon`, :func:`_hexagon`) on the category's
    label-indexed arrays, :attr:`Category.tables`, built once per
    category.  An instance is skipped, and counted, iff an F-block or
    R-symbol it reads is missing.  A NaN in any entry a residual reads
    makes that residual NaN, so every threshold test on it fails.
    """
    dim_res = np.max([abs(cat.qdim[a] * cat.qdim[b] - sum(cat.qdim[c] for c in cat.outcomes(a, b)))
                      for a in cat.labels for b in cat.labels])
    unit_res = np.max([abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
                       for mat in cat.f_table.values()], initial=0.0)
    r_res = np.max([abs(abs(v) - 1.0) for v in cat.r_table.values()], initial=0.0)

    p_max, p_checked, p_skipped = _pentagon(cat.tables)
    h_r, h_rinv, h_checked, h_skipped = _hexagon(cat.tables)
    h_max, orientation = (h_r, "R") if h_r <= h_rinv else (h_rinv, "R-inverse")
    return ConsistencyReport(
        category=cat.name, dim_residual=float(dim_res), unitarity_max=float(unit_res),
        r_modulus_max=float(r_res), pentagon_max=p_max, pentagon_checked=p_checked,
        pentagon_skipped=p_skipped, hexagon_max=h_max, hexagon_checked=h_checked,
        hexagon_skipped=h_skipped, hexagon_orientation=orientation)


# ---------------------------------------------------------------------------
# file format


def serialize_category(cat):
    """Render a category as the line-oriented text format.

    Grammar: ``label <name> qdim <decimal>``, ``fuse <a> <b> -> <c>[,...]``,
    ``F <a> <b> <c> <d> : <n> <m> = <re> <im>``, ``R <a> <b> <c> = <re> <im>``
    and ``#`` comments.  Writes the stored entries only, which may
    involve the unit (see :class:`Category`); unit entries that are not
    stored are synthesized by the convention when the file is read back.
    """
    out = [f"# category: {cat.name}"]
    for lab in cat.labels:
        out.append(f"label {lab} qdim {cat.qdim[lab]:.17g}")
    for a in cat.labels:
        for b in cat.labels:
            out.append(f"fuse {a} {b} -> {','.join(cat.outcomes(a, b))}")
    for key in sorted(cat.f_table, key=lambda t: tuple(map(cat.labels.index, t))):
        rows, cols = cat.f_rows(*key), cat.f_cols(*key)
        mat = cat.f_table[key]
        for i, n in enumerate(rows):
            for j, m in enumerate(cols):
                z = mat[i, j]
                out.append(f"F {key[0]} {key[1]} {key[2]} {key[3]} : {n} {m} = "
                           f"{z.real:.17g} {z.imag:.17g}")
    for key in sorted(cat.r_table, key=lambda t: tuple(map(cat.labels.index, t))):
        z = cat.r_table[key]
        out.append(f"R {key[0]} {key[1]} {key[2]} = {z.real:.17g} {z.imag:.17g}")
    return "\n".join(out) + "\n"


def parse_category(text, name="parsed"):
    """Parse the category file format; inverse of :func:`serialize_category`.

    Raises :class:`CategoryFileError` (with the line number) on malformed
    lines, non-finite numbers, unknown labels, inadmissible fusion
    references, a repeated ``label``, ``fuse``, ``F`` or ``R`` entry, a
    ``fuse b a`` line that contradicts ``fuse a b``, a ``label`` or
    ``fuse`` line after the first ``F`` or ``R`` line, and an F entry with
    the unit among ``a, b, c`` or an R line with a unit anyon whose value
    is not exactly the convention's 1 (lookups synthesize those, so any
    other value would be silently ignored).  Errors of the
    whole file (no label, a missing fusion rule, a first label that is not
    the unit, an incomplete F-block) carry line 0.
    """
    labels, qdim, rules = [], {}, {}
    f_entries, r_entries = {}, {}
    partial = None

    def fail(lineno, msg):
        raise CategoryFileError(lineno, msg)

    def number(lineno, text, what):
        try:
            value = float(text)
        except ValueError:
            fail(lineno, f"bad {what} value: {text!r}")
        if not math.isfinite(value):
            fail(lineno, f"non-finite {what} value: {text!r}")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind in ("label", "fuse") and partial is not None:
            fail(lineno, f"{kind} line after the first F or R line")
        if kind == "label":
            if len(parts) != 4 or parts[2] != "qdim":
                fail(lineno, f"bad label line: {raw!r}")
            if parts[1] in qdim:
                fail(lineno, f"repeated label {parts[1]!r}")
            labels.append(parts[1])
            qdim[parts[1]] = number(lineno, parts[3], "qdim")
        elif kind == "fuse":
            if len(parts) != 5 or parts[3] != "->":
                fail(lineno, f"bad fuse line: {raw!r}")
            a, b, cs = parts[1], parts[2], parts[4].split(",")
            for lab in (a, b, *cs):
                if lab not in qdim:
                    fail(lineno, f"unknown label {lab!r}")
            out = frozenset(cs)
            if (a, b) in rules:
                fail(lineno, f"repeated fuse line for ({a},{b})")
            if rules.get((b, a), out) != out:
                fail(lineno, f"fuse {a} {b} contradicts fuse {b} {a}")
            rules[(a, b)] = out
        elif kind == "F":
            if len(parts) != 11 or parts[5] != ":" or parts[8] != "=":
                fail(lineno, f"bad F line: {raw!r}")
            key, n, m = tuple(parts[1:5]), parts[6], parts[7]
            for lab in (*key, n, m):
                if lab not in qdim:
                    fail(lineno, f"unknown label {lab!r}")
            if partial is None:
                partial = _partial_category(name, labels, qdim, rules)
            if key not in f_entries:
                if not partial.is_admissible_f(*key):
                    fail(lineno, f"inadmissible F{key}")
                f_entries[key] = partial.f_rows(*key), partial.f_cols(*key), {}
            rows, cols, block = f_entries[key]
            if n not in rows or m not in cols:
                fail(lineno, f"index ({n},{m}) not admissible for F{key}")
            if (n, m) in block:
                fail(lineno, f"repeated entry ({n},{m}) of F{key}")
            block[(n, m)] = complex(
                number(lineno, parts[9], "F"), number(lineno, parts[10], "F"))
            if partial.unit in key[:3] and block[(n, m)] != 1:
                fail(lineno, f"F{key} has the unit among a, b, c and must be (1)")
        elif kind == "R":
            if len(parts) != 7 or parts[4] != "=":
                fail(lineno, f"bad R line: {raw!r}")
            a, b, c = parts[1], parts[2], parts[3]
            for lab in (a, b, c):
                if lab not in qdim:
                    fail(lineno, f"unknown label {lab!r}")
            if partial is None:
                partial = _partial_category(name, labels, qdim, rules)
            if c not in partial.fuse(a, b):
                fail(lineno, f"inadmissible R[{a},{b};{c}]")
            if (a, b, c) in r_entries:
                fail(lineno, f"repeated R[{a},{b};{c}]")
            r_entries[(a, b, c)] = complex(number(lineno, parts[5], "R"),
                                           number(lineno, parts[6], "R"))
            if partial.unit in (a, b) and r_entries[(a, b, c)] != 1:
                fail(lineno, f"R[{a},{b};{c}] has a unit anyon and must be 1")
        else:
            fail(lineno, f"unrecognized line: {raw!r}")

    if partial is None:
        partial = _partial_category(name, labels, qdim, rules)
    f_table = {}
    for key, (rows, cols, entries) in f_entries.items():
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        for i, n in enumerate(rows):
            for j, m in enumerate(cols):
                if (n, m) not in entries:
                    raise CategoryFileError(0, f"incomplete F-block F{key}: missing ({n},{m})")
                mat[i, j] = entries[(n, m)]
        f_table[key] = mat
    return Category(name, tuple(labels), qdim, partial.fusion, f_table, r_entries)


def _partial_category(name, labels, qdim, rules):
    if not labels:
        raise CategoryFileError(0, "no label line")
    try:
        fusion = _symmetrized_fusion(tuple(labels), rules)
    except ValueError as exc:
        raise CategoryFileError(0, str(exc)) from None
    if any(fusion[labels[0], x] != {x} for x in labels):
        raise CategoryFileError(0, f"first label {labels[0]!r} is not the unit")
    return Category(name, tuple(labels), dict(qdim), fusion, {}, {})


def categories_equal(cat1, cat2, tol=1e-12):
    """Entrywise equality of two categories' data within ``tol``; a NaN
    entry on either side is unequal."""
    if cat1.labels != cat2.labels:
        return False
    if any(not abs(cat1.qdim[l] - cat2.qdim[l]) <= tol for l in cat1.labels):
        return False
    if cat1.fusion != cat2.fusion:
        return False
    if set(cat1.f_table) != set(cat2.f_table) or set(cat1.r_table) != set(cat2.r_table):
        return False
    for key, mat in cat1.f_table.items():
        if mat.shape != cat2.f_table[key].shape or not abs(mat - cat2.f_table[key]).max() <= tol:
            return False
    return all(abs(v - cat2.r_table[k]) <= tol for k, v in cat1.r_table.items())
