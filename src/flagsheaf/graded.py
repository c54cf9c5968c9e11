"""Finitely supported graded dimension vectors (degree -> dim >= 0)."""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class GradedDims:
    """Map from integer degrees to nonnegative dimensions.

    Zero entries are dropped eagerly, so two values agree iff their
    supports and dimensions agree.  Instances are immutable, so each
    keeps the JSON text of its table per indent (``to_json``).
    """

    __slots__ = ("_data", "_texts")

    def __init__(self, data: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # a dict (Counter too) skips the slower Mapping ABC check
        mapping = isinstance(data, dict) or isinstance(data, Mapping)
        clean: dict[int, int] = {}
        for deg, dim in data.items() if mapping else data:
            if dim < 0:
                raise ValueError(f"negative dimension {dim} in degree {deg}")
            if dim:
                deg = int(deg)
                clean[deg] = clean.get(deg, 0) + dim
        self._data = dict(sorted(clean.items()))
        self._texts = None  # pad -> json_text, built on first print

    @classmethod
    def line(cls, degree: int = 0, dim: int = 1) -> "GradedDims":
        return cls({degree: dim})

    @classmethod
    def empty(cls) -> "GradedDims":
        return cls()

    def __getitem__(self, degree: int) -> int:
        return self._data.get(degree, 0)

    def items(self):
        return self._data.items()

    def degrees(self):
        return self._data.keys()

    def is_zero(self) -> bool:
        return not self._data

    def total(self) -> int:
        return sum(self._data.values())

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        if self is other:  # blocks share their multiplicity spaces
            return True
        return isinstance(other, GradedDims) and self._data == other._data

    def __hash__(self):
        return hash(tuple(self._data.items()))

    def __add__(self, other: "GradedDims") -> "GradedDims":
        out = dict(self._data)
        for deg, dim in other.items():
            out[deg] = out.get(deg, 0) + dim
        return GradedDims(out)

    def shifted(self, offset: int) -> "GradedDims":
        """Move every degree up by ``offset``."""
        return GradedDims({deg + offset: dim for deg, dim in self._data.items()})

    def tensor(self, other: "GradedDims") -> "GradedDims":
        """Graded tensor product: degrees add, dimensions multiply."""
        out: dict[int, int] = {}
        for d1, m1 in self._data.items():
            for d2, m2 in other.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + m1 * m2
        return GradedDims(out)

    def dominates(self, other: "GradedDims") -> bool:
        """Componentwise >=."""
        return all(self[d] >= m for d, m in other.items())

    def to_json(self) -> dict[str, int]:
        """The table as a dict ``{str(degree): dim}`` that also carries
        ``json_text``: a table printed many times builds its text once
        per indent."""
        table = _Table({str(deg): dim for deg, dim in self._data.items()})
        table.json_text = self._json_text
        return table

    def _json_text(self, pad: str) -> str:
        """``json.dumps(sort_keys=True, indent=2)`` of ``to_json()`` at the
        indent ``pad``: keys sort as strings ("-2" < "10" < "2")."""
        if self._texts is None:
            self._texts = {}
        if pad not in self._texts:
            head = pad + '  "'
            body = ("," + head).join(f'{key}": {dim}' for key, dim in sorted(
                (str(deg), dim) for deg, dim in self._data.items()))
            self._texts[pad] = "{" + head + body + pad + "}" if body else "{}"
        return self._texts[pad]

    def __repr__(self):
        body = ", ".join(f"{d}: {m}" for d, m in self._data.items())
        return f"GradedDims({{{body}}})"


class _Table(dict):
    """A graded table as JSON sees it, carrying its text (``to_json``)."""

    __slots__ = ("json_text",)


def poincare_in_q(betti_dims: GradedDims) -> GradedDims:
    """Reindex an even-degree table by q = t^2 (degree 2d -> d)."""
    out = {}
    for deg, dim in betti_dims.items():
        if deg % 2:
            raise ValueError(f"odd degree {deg} has no q-grading")
        out[deg // 2] = dim
    return GradedDims(out)
