"""Catalog of para-Kahler structures: schema, loader, and builtin data.

A catalog document is a single JSON object::

    {"algebras": [
        {"name": ..., "dim": 4,
         "params":  [{"name": ..., "domain": {"kind": ..., "lo"?, "hi"?, "excluded"?}}],
         "brackets": [[i, j, k, "expr"], ...],      # 1-based, i < j, C^k_ij
         "forms":    [{"id": ..., "terms": [[i, j, "expr"], ...]}],
         "structures": [
             {"id": ..., "form": ..., "J": [["expr", ...], ...],
              "params": [...],
              "expected": {"label"?, "einstein_factor"?, "ric"?: [[...]]},
              "note"?: str}]}]}

Expressions use the package grammar (integers, parameters, ``+ - * / ^``).
``load_catalog`` reports structural problems with the JSON-path of the
offending field; ``dump_catalog`` and ``load_catalog`` round-trip exactly.
The builtin document goes through the same loader (``builtin_catalog``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .curvature import LABELS
from .expressions import (
    DIGIT_LIMIT,
    PARAMS,
    ExprMatrix,
    ExprSyntaxError,
    RationalExpr,
    SymbolicZeroDivisionError,
    UnknownParameterError,
    digit_count,
    expr,
    format_expr,
    quoted,
)
from .liealgebra import LieAlgebra, ParamDomain, TwoForm


class CatalogFormatError(ValueError):
    """Malformed catalog document; carries the JSON path of the offender."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ExpectedResults(NamedTuple):
    label: Optional[str] = None
    einstein_factor: Optional[RationalExpr] = None
    ric: Optional[ExprMatrix] = None


class CatalogEntry(NamedTuple):
    entry_id: str
    algebra: str
    form: str
    j_matrix: ExprMatrix
    params: Tuple[Tuple[str, ParamDomain], ...]
    expected: ExpectedResults
    note: str = ""


class Catalog:
    def __init__(
        self,
        algebras: Dict[str, LieAlgebra],
        forms: Dict[Tuple[str, str], TwoForm],
        entries: List[CatalogEntry],
    ):
        self.algebras, self.forms, self.entries = algebras, forms, entries

    def form_of(self, entry: CatalogEntry) -> TwoForm:
        return self.forms[(entry.algebra, entry.form)]

    def algebra_of(self, entry: CatalogEntry) -> LieAlgebra:
        return self.algebras[entry.algebra]

    def domains_of(self, entry: CatalogEntry) -> Dict[str, ParamDomain]:
        domains = dict(self.algebras[entry.algebra].params)
        domains.update(dict(entry.params))
        return domains

    def select(self, pattern: Optional[str] = None) -> List[CatalogEntry]:
        """Every entry whose id matches the glob ``pattern`` (all if None)."""
        from fnmatch import fnmatchcase

        return [e for e in self.entries if pattern is None or fnmatchcase(e.entry_id, pattern)]


def _shown(value) -> str:
    """``value`` as a message quotes it.  Python refuses to format an integer
    of more than 4,300 digits, so a long integer is named by its digit count
    and a value that holds one by its type; text is cut by ``quoted``."""
    if type(value) is int and value.bit_length() > 64:
        return f"an integer of {digit_count(value)} digits"
    if isinstance(value, str):
        return quoted(value)
    try:
        return repr(value)
    except ValueError:  # a container that holds a long integer
        return f"a {type(value).__name__} holding an integer too long to print"


def _parse(path: str, text) -> RationalExpr:
    if type(text) is int:  # not a bool
        return expr(text)
    if not isinstance(text, str):
        raise CatalogFormatError(path, f"expected expression string, got {_shown(text)}")
    try:
        return expr(text)
    except UnknownParameterError as exc:
        raise CatalogFormatError(path, str(exc)) from exc
    except (ExprSyntaxError, SymbolicZeroDivisionError) as exc:
        raise CatalogFormatError(
            path, f"cannot parse expression {_shown(text)}: {exc}"
        ) from exc


def _items(path: str, owner: dict, key: str) -> list:
    """``owner[key]`` (absent: empty) as a list; ``path`` locates ``owner``."""
    raw = owner.get(key, ())
    if not isinstance(raw, (list, tuple)):
        where = f"{path}.{key}" if path else key
        raise CatalogFormatError(where, f"expected a list, got {_shown(raw)}")
    return raw


def _name(path: str, raw) -> str:
    if not isinstance(raw, str):
        raise CatalogFormatError(path, f"expected a string, got {_shown(raw)}")
    return raw


def _object(path: str, raw, what: str) -> dict:
    if not isinstance(raw, dict):
        raise CatalogFormatError(path, f"{what} must be an object")
    return raw


def _indexed(path: str, item, size: int, shape: str) -> list:
    """A sparse entry ``[index, ..., expr]`` of ``size`` fields."""
    if not isinstance(item, (list, tuple)) or len(item) != size:
        raise CatalogFormatError(path, f"entries are {shape}")
    if any(type(x) is not int for x in item[:-1]):
        raise CatalogFormatError(
            path, f"indices must be integers, got {_shown(list(item[:-1]))}"
        )
    return item


def _matrix(path: str, raw, dim: int) -> ExprMatrix:
    if not isinstance(raw, (list, tuple)) or len(raw) != dim or any(
        not isinstance(row, (list, tuple)) or len(row) != dim for row in raw
    ):
        raise CatalogFormatError(path, f"expected a {dim}x{dim} matrix of expressions")
    return ExprMatrix(
        [[_parse(f"{path}[{r}][{c}]", raw[r][c]) for c in range(dim)] for r in range(dim)]
    )


def _fraction(path: str, value) -> Fraction:
    """``value`` as a rational.  ``Fraction`` computes 10^e for a decimal
    exponent e, so one past ``DIGIT_LIMIT``, Python's int limit, is refused first."""
    try:
        text = str(value)
        exponent = text.lower().partition("e")[2]
        if not exponent or abs(int(exponent)) <= DIGIT_LIMIT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogFormatError(path, f"bad rational {_shown(value)}") from exc
    raise CatalogFormatError(path, f"exponent of {_shown(value)} exceeds {DIGIT_LIMIT} in magnitude")


def _parse_domain(path: str, raw) -> ParamDomain:
    if raw is None:
        return ParamDomain()
    _object(path, raw, "domain")
    lo, hi = (
        None if raw.get(key) is None else _fraction(f"{path}.{key}", raw[key])
        for key in ("lo", "hi")
    )
    excluded = tuple(
        _fraction(f"{path}.excluded[{idx}]", v)
        for idx, v in enumerate(_items(path, raw, "excluded"))
    )
    try:
        return ParamDomain(kind=raw.get("kind", "free"), lo=lo, hi=hi, excluded=excluded)
    except ValueError as exc:
        raise CatalogFormatError(path, str(exc)) from exc


def _parse_params(path: str, raw) -> Tuple[Tuple[str, ParamDomain], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise CatalogFormatError(path, f"expected a list, got {_shown(raw)}")
    out = []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict) or "name" not in item:
            raise CatalogFormatError(f"{path}[{idx}]", "parameter needs a name")
        name = item["name"]
        if name not in PARAMS:
            raise CatalogFormatError(
                f"{path}[{idx}].name",
                f"expected one of {', '.join(PARAMS)}, got {_shown(name)}",
            )
        out.append((name, _parse_domain(f"{path}[{idx}].domain", item.get("domain"))))
    return tuple(out)


def load_catalog(document: dict) -> Catalog:
    """Parse a catalog document; all expressions compile to RationalExpr."""
    if not isinstance(document, dict) or "algebras" not in document:
        raise CatalogFormatError("$", "document must be an object with an 'algebras' list")
    algebras: Dict[str, LieAlgebra] = {}
    forms: Dict[Tuple[str, str], TwoForm] = {}
    entries: List[CatalogEntry] = []
    seen_ids = set()
    for a_idx, alg_raw in enumerate(_items("", document, "algebras")):
        apath = f"algebras[{a_idx}]"
        if not isinstance(alg_raw, dict):
            raise CatalogFormatError(apath, "algebra must be an object")
        for key in ("name", "dim"):
            if key not in alg_raw:
                raise CatalogFormatError(apath, f"missing field {key!r}")
        name = _name(f"{apath}.name", alg_raw["name"])
        dim = alg_raw["dim"]
        # every check is written for dim 4, and a larger dim costs dim^3 constants
        if type(dim) is not int or dim != 4:
            raise CatalogFormatError(f"{apath}.dim", f"expected 4, got {_shown(dim)}")
        if name in algebras:
            raise CatalogFormatError(apath, f"duplicate algebra name {_shown(name)}")
        params = _parse_params(f"{apath}.params", alg_raw.get("params"))
        brackets = []
        for b_idx, item in enumerate(_items(apath, alg_raw, "brackets")):
            bpath = f"{apath}.brackets[{b_idx}]"
            i, j, k, text = _indexed(bpath, item, 4, "[i, j, k, expr]")
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise CatalogFormatError(
                    bpath,
                    f"indices ({_shown(i)}, {_shown(j)}, {_shown(k)}) out of range for dim {dim}",
                )
            brackets.append((i, j, k, _parse(bpath, text)))
        try:
            algebra = LieAlgebra.from_brackets(name, dim, brackets, params)
        except ValueError as exc:
            raise CatalogFormatError(apath, str(exc)) from exc
        algebras[name] = algebra
        form_ids = set()
        for f_idx, form_raw in enumerate(_items(apath, alg_raw, "forms")):
            fpath = f"{apath}.forms[{f_idx}]"
            if "id" not in _object(fpath, form_raw, "form"):
                raise CatalogFormatError(fpath, "missing form id")
            fid = _name(f"{fpath}.id", form_raw["id"])
            if fid in form_ids:
                raise CatalogFormatError(fpath, f"duplicate form id {_shown(fid)}")
            form_ids.add(fid)
            terms = []
            for t_idx, term in enumerate(_items(fpath, form_raw, "terms")):
                tpath = f"{fpath}.terms[{t_idx}]"
                i, j, text = _indexed(tpath, term, 3, "[i, j, expr]")
                if not (1 <= i < j <= dim):
                    raise CatalogFormatError(
                        tpath, f"indices ({_shown(i)}, {_shown(j)}) out of range for dim {dim}"
                    )
                terms.append((i, j, _parse(tpath, text)))
            forms[(name, fid)] = TwoForm.from_terms(dim, terms)
        for s_idx, s_raw in enumerate(_items(apath, alg_raw, "structures")):
            spath = f"{apath}.structures[{s_idx}]"
            for key in ("id", "form", "J"):
                if key not in _object(spath, s_raw, "structure"):
                    raise CatalogFormatError(spath, f"missing field {key!r}")
            sid = _name(f"{spath}.id", s_raw["id"])
            if sid in seen_ids:
                raise CatalogFormatError(spath, f"duplicate structure id {_shown(sid)}")
            seen_ids.add(sid)
            if _name(f"{spath}.form", s_raw["form"]) not in form_ids:
                raise CatalogFormatError(
                    f"{spath}.form", f"unknown form id {_shown(s_raw['form'])}"
                )
            j_matrix = _matrix(f"{spath}.J", s_raw["J"], dim)
            exp_raw = _object(f"{spath}.expected", s_raw.get("expected", {}), "expected")
            label = exp_raw.get("label")
            if label is not None and label not in LABELS:
                raise CatalogFormatError(
                    f"{spath}.expected.label",
                    f"unknown label {_shown(label)}; known: {', '.join(LABELS)}",
                )
            factor = exp_raw.get("einstein_factor")
            ric_raw = exp_raw.get("ric")
            ric = None if ric_raw is None else _matrix(f"{spath}.expected.ric", ric_raw, dim)
            expected = ExpectedResults(
                label=label,
                einstein_factor=None
                if factor is None
                else _parse(f"{spath}.expected.einstein_factor", factor),
                ric=ric,
            )
            entries.append(
                CatalogEntry(
                    entry_id=sid,
                    algebra=name,
                    form=s_raw["form"],
                    j_matrix=j_matrix,
                    params=_parse_params(f"{spath}.params", s_raw.get("params")),
                    expected=expected,
                    note=_name(f"{spath}.note", s_raw.get("note", "")),
                )
            )
    return Catalog(algebras=algebras, forms=forms, entries=entries)


def _dump_domain(domain: ParamDomain) -> dict:
    out: dict = {"kind": domain.kind}
    if domain.lo is not None:
        out["lo"] = str(domain.lo)
    if domain.hi is not None:
        out["hi"] = str(domain.hi)
    if domain.excluded:
        out["excluded"] = [str(v) for v in domain.excluded]
    return out


def _dump_params(params) -> list:
    return [{"name": name, "domain": _dump_domain(dom)} for name, dom in params]


def dump_catalog(catalog: Catalog) -> dict:
    """Serialize back to the document schema with canonical expression text."""
    algebras_out = []
    for name, algebra in catalog.algebras.items():
        entry_forms = [fid for (alg, fid) in catalog.forms if alg == name]
        structures = [e for e in catalog.entries if e.algebra == name]
        alg_out = {
            "name": name,
            "dim": algebra.dim,
            "params": _dump_params(algebra.params),
            "brackets": [
                [i, j, k, format_expr(v)] for (i, j, k, v) in algebra.sparse_brackets()
            ],
            "forms": [
                {
                    "id": fid,
                    "terms": [
                        [i, j, format_expr(v)]
                        for (i, j, v) in catalog.forms[(name, fid)].terms()
                    ],
                }
                for fid in entry_forms
            ],
            "structures": [],
        }
        for e in structures:
            s_out = {
                "id": e.entry_id,
                "form": e.form,
                "J": [
                    [format_expr(e.j_matrix[r, c]) for c in range(e.j_matrix.cols)]
                    for r in range(e.j_matrix.rows)
                ],
                "params": _dump_params(e.params),
                "expected": {},
            }
            if e.expected.label is not None:
                s_out["expected"]["label"] = e.expected.label
            if e.expected.einstein_factor is not None:
                s_out["expected"]["einstein_factor"] = format_expr(
                    e.expected.einstein_factor
                )
            if e.expected.ric is not None:
                s_out["expected"]["ric"] = [
                    [format_expr(e.expected.ric[r, c]) for c in range(e.expected.ric.cols)]
                    for r in range(e.expected.ric.rows)
                ]
            if e.note:
                s_out["note"] = e.note
            alg_out["structures"].append(s_out)
        algebras_out.append(alg_out)
    return {"algebras": algebras_out}


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    """The builtin classification: 15 algebras, 57 structures.  Its data module
    is imported here, so a run on a catalog file never compiles it."""
    from .builtin_data import BUILTIN_DOCUMENT

    return load_catalog(BUILTIN_DOCUMENT)
