"""In-memory relational tables: the import source and result shape.

The paper imports "single tables; which, e.g., correspond to log files
at Google ... or result from denormalizing a set of relational tables".
:class:`Table` is that flat, typed, column-oriented in-memory relation.
It is deliberately simple — the interesting encodings live in
:mod:`repro.storage`; this class is the neutral exchange format between
the workload generator, the row/column file backends, and the datastore
import path. A column is a list of cells or, dictionary-coded, the
paper's own (sorted dictionary, code column) pair.
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import TableError


class DataType(enum.Enum):
    """Column types supported by the reproduction."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"

    def validate(self, value: Any) -> None:
        """Raise :class:`TableError` if ``value`` doesn't fit this type."""
        if value is None:
            return
        if self is DataType.STRING and not isinstance(value, str):
            raise TableError(f"expected str, got {type(value).__name__}: {value!r}")
        if self is DataType.INT and (
            isinstance(value, bool) or not isinstance(value, (int, np.integer))
        ):
            raise TableError(f"expected int, got {type(value).__name__}: {value!r}")
        if self is DataType.FLOAT and not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise TableError(f"expected float, got {type(value).__name__}: {value!r}")

    @classmethod
    def infer(cls, values: Iterable[Any]) -> "DataType":
        """Infer the narrowest type covering all non-null ``values``."""
        seen_float = False
        seen_int = False
        seen_str = False
        for value in values:
            if value is None:
                continue
            if isinstance(value, str):
                seen_str = True
            elif isinstance(value, bool):
                raise TableError("bool columns are not supported")
            elif isinstance(value, (int, np.integer)):
                seen_int = True
            elif isinstance(value, (float, np.floating)):
                seen_float = True
            else:
                raise TableError(f"unsupported value type {type(value).__name__}")
        if seen_str and (seen_int or seen_float):
            raise TableError("column mixes strings and numbers")
        if seen_str:
            return cls.STRING
        if seen_float:
            return cls.FLOAT
        return cls.INT


def _object_cells(values: Sequence[Any]) -> np.ndarray:
    """``values`` as a 1-d object array (cells stay Python objects)."""
    if isinstance(values, np.ndarray):
        return values.astype(object)
    cells = np.empty(len(values), dtype=object)
    cells[:] = values
    return cells


def _row_indices(indices: np.ndarray | Sequence[int], n_rows: int) -> np.ndarray:
    """``indices`` as an int64 array, each checked to lie in [0, n_rows)."""
    picked = np.asarray(indices)
    if picked.size == 0:
        return np.empty(0, dtype=np.int64)
    if picked.dtype.kind not in "iu":
        raise TableError(
            f"take needs integer row indices, got dtype {picked.dtype}"
        )
    low, high = int(picked.min()), int(picked.max())
    if low < 0 or high >= n_rows:
        raise TableError(
            f"row {low if low < 0 else high} out of range [0, {n_rows})"
        )
    return picked.astype(np.int64, copy=False)


class Column:
    """A named, typed sequence of values (None = NULL).

    Two forms answer the same interface. A *list-backed* column holds
    one Python object per cell (what the CSV and record-io readers
    build). A *dictionary-coded* column (:meth:`from_codes`) holds an
    integer ``codes`` array into ``distinct`` — strictly ascending
    values, NULL first — which is the paper's own (dictionary, code
    column) form and exactly what ``factorize`` returns; ``take`` is
    then an operation on the codes alone, and ``values`` materialises
    the cell list only for a reader that asks for it.
    """

    __slots__ = ("name", "dtype", "codes", "distinct", "_values")

    def __init__(
        self,
        name: str,
        values: Sequence[Any],
        dtype: DataType | None = None,
        validate: bool = True,
    ) -> None:
        self.name = name
        self.codes: np.ndarray | None = None
        self.distinct: list[Any] | np.ndarray | None = None
        self._values: list[Any] | None = list(values)
        self.dtype = dtype if dtype is not None else DataType.infer(self._values)
        if validate and dtype is not None:
            for value in self._values:
                self.dtype.validate(value)

    @classmethod
    def from_codes(
        cls,
        name: str,
        codes: np.ndarray | Sequence[int],
        distinct: Sequence[Any] | np.ndarray,
        dtype: DataType,
        validate: bool = True,
    ) -> "Column":
        """A dictionary-coded column: row i holds ``distinct[codes[i]]``.

        ``distinct`` is a list (``None`` first when the column has
        NULLs) or, for a numeric column without NULLs, a typed numpy
        array — kept as one, so a column of millions of distinct numbers
        never becomes millions of Python ints. It must be strictly
        ascending but need not be tight: values no row uses (``take``
        leaves them behind) are dropped by ``factorize``. Validation is
        per distinct value, never per cell.
        """
        column = cls.__new__(cls)
        column.name = name
        column.dtype = dtype
        column.codes = np.asarray(codes)
        column.distinct = (
            distinct if isinstance(distinct, (list, np.ndarray)) else list(distinct)
        )
        column._values = None
        if validate:
            column._validate_coded()
        return column

    def _validate_coded(self) -> None:
        codes, distinct = self.codes, self.distinct
        integral = codes.dtype.kind in "iu" and codes.dtype != np.uint64
        if codes.ndim != 1 or not integral:
            raise TableError(
                f"codes must be a 1-d signed or narrow unsigned integer array, "
                f"got {codes.dtype} with {codes.ndim} dimensions"
            )
        if codes.size and not 0 <= codes.min() <= codes.max() < len(distinct):
            raise TableError(
                f"codes of column {self.name!r} fall outside "
                f"[0, {len(distinct)})"
            )
        if isinstance(distinct, np.ndarray):
            fits = {
                DataType.INT: (np.int64,),
                DataType.FLOAT: (np.int64, np.float64),
            }.get(self.dtype, ())
            if distinct.ndim != 1 or distinct.dtype not in fits:
                raise TableError(
                    f"a {distinct.dtype} array cannot hold the distinct "
                    f"values of {self.dtype.value} column {self.name!r}"
                )
            ascending = bool(np.all(np.diff(distinct) > 0))
        else:
            for value in distinct:
                self.dtype.validate(value)
            non_null = distinct[1:] if distinct and distinct[0] is None else distinct
            try:
                ascending = None not in non_null and all(
                    map(operator.lt, non_null, non_null[1:])
                )
            except TypeError as exc:
                raise TableError(
                    f"distinct values of column {self.name!r} do not compare: {exc}"
                ) from None
        if not ascending:
            raise TableError(
                f"distinct values of column {self.name!r} must be strictly "
                "ascending, NULL first"
            )

    @property
    def values(self) -> list[Any]:
        """Every cell as a Python object (materialised once, on demand)."""
        if self._values is None:
            self._values = _object_cells(self.distinct)[self.codes].tolist()
        return self._values

    def __len__(self) -> int:
        return len(self._values) if self.codes is None else int(self.codes.size)

    def __getitem__(self, row: int) -> Any:
        if self._values is not None:
            return self._values[row]
        value = self.distinct[self.codes[row]]
        return value.item() if isinstance(value, np.generic) else value

    def presence(self) -> np.ndarray:
        """Coded form: which entries of ``distinct`` at least one row uses."""
        present = np.zeros(len(self.distinct), dtype=bool)
        present[self.codes] = True
        return present

    def distinct_values(self) -> list[Any]:
        """The values at least one row holds (NULL included), each once."""
        if self.codes is None:
            return list(set(self._values))
        present = self.presence()
        if isinstance(self.distinct, np.ndarray):
            return self.distinct[present].tolist()
        return list(itertools.compress(self.distinct, present.tolist()))

    def take(self, indices: np.ndarray | Sequence[int]) -> "Column":
        """A new column with rows reordered/selected by ``indices``.

        A coded column takes its codes and shares ``distinct`` as is.
        """
        picked = _row_indices(indices, len(self))
        if self.codes is not None:
            return Column.from_codes(
                self.name, self.codes[picked], self.distinct, self.dtype,
                validate=False,
            )
        return Column(
            self.name,
            _object_cells(self._values)[picked].tolist(),
            dtype=self.dtype,
            validate=False,
        )


class Schema:
    """Ordered field name -> type mapping."""

    def __init__(self, fields: Sequence[tuple[str, DataType]]) -> None:
        names = [name for name, __ in fields]
        if len(set(names)) != len(names):
            raise TableError(f"duplicate field names in schema: {names}")
        self._fields = list(fields)
        self._types = dict(fields)

    @property
    def field_names(self) -> list[str]:
        return [name for name, __ in self._fields]

    def dtype(self, name: str) -> DataType:
        try:
            return self._types[name]
        except KeyError:
            raise TableError(
                f"unknown field {name!r}; schema has {self.field_names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[tuple[str, DataType]]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields


class Table:
    """A flat, typed, column-oriented relation."""

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise TableError("a table needs at least one column")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise TableError(f"ragged columns: lengths {sorted(lengths)}")
        self._columns = {column.name: column for column in columns}
        if len(self._columns) != len(columns):
            raise TableError("duplicate column names")
        self._order = [column.name for column in columns]
        self._n_rows = lengths.pop()

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_columns(
        cls, data: Mapping[str, Sequence[Any]], schema: Schema | None = None
    ) -> "Table":
        """Build from a name -> values mapping (types inferred if no schema)."""
        columns = []
        for name, values in data.items():
            dtype = schema.dtype(name) if schema is not None else None
            columns.append(Column(name, values, dtype=dtype))
        return cls(columns)

    # -- shape -----------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._order)

    @property
    def field_names(self) -> list[str]:
        return list(self._order)

    @property
    def schema(self) -> Schema:
        return Schema([(name, self._columns[name].dtype) for name in self._order])

    # -- access ------------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise TableError(
                f"unknown column {name!r}; table has {self._order}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def row(self, index: int) -> tuple:
        """Row ``index`` as a tuple in schema order."""
        if not 0 <= index < self._n_rows:
            raise TableError(f"row {index} out of range [0, {self._n_rows})")
        return tuple(self._columns[name][index] for name in self._order)

    def iter_rows(self) -> Iterator[tuple]:
        columns = [self._columns[name].values for name in self._order]
        return zip(*columns) if columns else iter(())

    # -- transforms ---------------------------------------------------------
    def take(self, indices: np.ndarray | Sequence[int]) -> "Table":
        """A new table with rows selected/reordered by ``indices``."""
        return Table([self._columns[name].take(indices) for name in self._order])

    def sorted_rows(self) -> list[tuple]:
        """All rows sorted — canonical form for result comparison."""
        key = lambda row: tuple(
            (value is not None, value) for value in row
        )
        return sorted(self.iter_rows(), key=key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self._order == other._order
            and all(
                self._columns[n].values == other._columns[n].values
                for n in self._order
            )
        )

    def __repr__(self) -> str:
        return f"Table({self._n_rows} rows x {self._order})"
