"""JSON bundle format: named Hopf algebras, comodule algebras, B-modules and
crossed-product data over one explicit ground field.

Schema (one file = one bundle):

    {
      "field": "Q" | "F_p",
      "hopf_algebras":     {name: {dim, labels?, mul, unit, comul, counit,
                                   antipode, antipode_inv?}},
      "comodule_algebras": {name: {hopf, dim, labels?, mul, unit, coaction}},
      "modules":           {name: {comodule_algebra, dim, actions}},
      "crossed_products":  {name: {hopf, base: {dim, labels?, mul, unit},
                                   omega, sigma, sigma_bar?}}
    }

Sparse encodings, all with scalars in the field's text format ("n"/"n/d" over
Q, "n mod p" over F_p):
  - 3-leg tensors (mul, comul, coaction, omega, sigma): [i, j, k, "coeff"]
    quadruples; for mul the entry is <e_i, e_j * e_k>, for comul
    <e_i (x) e_j, Delta(e_k)>, for coaction <e_i (x) f_j, rho(e_k)>, for
    omega <b_i, h_j . b_k>, for sigma <b_i, sigma(h_j (x) h_k)>.
  - matrices (antipode, module actions): [i, j, "coeff"] triples, entry (i,j).
  - vectors (unit, counit): dense lists of scalars.

A 3-leg tensor or an action matrix is parsed into a dense matrix (the last
of duplicate entries wins, an explicit zero overwrites) and reaches the
constructors as the table read off it (see linalg and hopf); the emitter
writes those tables back sorted.  Each section, record, reference and dim
is type-checked, a malformed one being a ParseError that names it.  All
validators run eagerly on load; emit(load(x)) round-trips semantically.
"""

import json

from .comodule import BModule, ComoduleAlgebraData
from .fields import FieldError, field_from_name, field_name
from .hopf import (CoalgebraData, HopfAlgebraData, StructureConstantAlgebra,
                   validate_hopf)
from .linalg import Matrix, _columns, _leg_columns


class ParseError(ValueError):
    def __init__(self, where, message):
        super().__init__(f"{where}: {message}")
        self.where = where


class ValidationError(ValueError):
    def __init__(self, where, axiom, witness=None):
        super().__init__(f"{where}: axiom {axiom!r} fails"
                         + (f" at {witness}" if witness is not None else ""))
        self.where = where
        self.axiom = axiom
        self.witness = witness


class WorkspaceBundle:
    def __init__(self, field):
        self.field = field
        self.hopf_algebras = {}
        self.comodule_algebras = {}
        self.modules = {}
        self.crossed_products = {}


# -- decoding ----------------------------------------------------------------


def _scalar(field, text, where):
    try:
        return field.parse(str(text))
    except FieldError as exc:
        raise ParseError(where, str(exc)) from exc


def _vector(field, data, length, where):
    if not isinstance(data, list) or len(data) != length:
        raise ParseError(where, f"expected a list of {length} scalars")
    return [_scalar(field, x, where) for x in data]


def _matrix(field, entries, rows, cols, where, dims=None):
    """The rows x cols matrix, row-major, of the tensor of shape dims
    (default (rows, cols), leg 0 major) given by [i, j, (k,) coeff]
    entries; the last of duplicate entries wins."""
    dims = dims or (rows, cols)
    m, names = Matrix.zeros(field, rows, cols), "i, j, k"[:3 * len(dims) - 2]
    if not isinstance(entries, list):
        raise ParseError(where, f"expected a list of [{names}, coeff] "
                         + ("triples" if len(dims) == 2 else "entries"))
    for idx, entry in enumerate(entries):
        here = f"{where}[{idx}]"
        if not (isinstance(entry, list) and len(entry) == len(dims) + 1):
            raise ParseError(here, f"expected [{names}, coeff]")
        *index, c = entry
        if not all(isinstance(i, int) and 0 <= i < d
                   for i, d in zip(index, dims)):
            raise ParseError(here, "index out of range "
                             f"({','.join(map(str, index))})")
        flat = 0
        for i, d in zip(index, dims):
            flat = flat * d + i
        m.data[flat] = _scalar(field, c, here)
    return m


def _require(record, key, where):
    if key not in record:
        raise ParseError(where, f"missing field {key!r}")
    return record[key]


def _object(value, where):
    if not isinstance(value, dict):
        raise ParseError(where, "expected a JSON object")
    return value


def _records(raw, section):
    """The (name, record) pairs of a section, sorted, each record an object."""
    return [(name, _object(record, f"{section}.{name}")) for name, record
            in sorted(_object(raw.get(section, {}), section).items())]


def _reference(record, key, where, known, what):
    """known[record[key]], the named entry a record refers to."""
    ref = _require(record, key, where)
    if not isinstance(ref, str):
        raise ParseError(f"{where}.{key}", f"expected the name of a {what}")
    if ref not in known:
        raise ParseError(where, f"unknown {what} {ref!r}")
    return ref, known[ref]


def _dim(record, where):
    dim = _require(record, "dim", where)
    if not (isinstance(dim, int) and dim >= 0):
        raise ParseError(where, "dim must be a nonnegative integer")
    return dim


def _algebra(field, record, where):
    dim = _dim(record, where)
    mul = _matrix(field, _require(record, "mul", where), dim, dim * dim,
                  f"{where}.mul", (dim,) * 3)
    unit = _vector(field, _require(record, "unit", where), dim,
                   f"{where}.unit")
    labels = record.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != dim):
        raise ParseError(f"{where}.labels", f"expected {dim} labels")
    return StructureConstantAlgebra(field, dim, _columns(mul), unit, labels)


def _hopf(field, record, where):
    alg = _algebra(field, record, where)
    dim = alg.dim
    comul = _matrix(field, _require(record, "comul", where), dim * dim, dim,
                    f"{where}.comul", (dim,) * 3)
    counit = Matrix(field, 1, dim,
                    _vector(field, _require(record, "counit", where), dim,
                            f"{where}.counit"))
    coalg = CoalgebraData(field, dim, _leg_columns(comul, dim), counit)
    antipode = _matrix(field, _require(record, "antipode", where), dim, dim,
                       f"{where}.antipode")
    if "antipode_inv" in record:
        antipode_inv = _matrix(field, record["antipode_inv"], dim, dim,
                               f"{where}.antipode_inv")
    else:
        try:
            antipode_inv = antipode.invert()
        except Exception as exc:
            raise ParseError(f"{where}.antipode",
                             "antipode is not invertible") from exc
    hopf = HopfAlgebraData(alg, coalg, antipode, antipode_inv)
    report = validate_hopf(hopf)
    if not report.passed:
        raise ValidationError(where, *report.failures[0])
    return hopf


def load_bundle(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(str(path), str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(str(path), "bundle must be a JSON object")
    header = _require(raw, "field", str(path))
    if not isinstance(header, str):
        raise ParseError(str(path), "field must be a string such as \"Q\" or "
                         f"\"F_7\", not {json.dumps(header)}")
    try:
        field = field_from_name(header)
    except FieldError as exc:
        raise ParseError(str(path), str(exc)) from exc
    bundle = WorkspaceBundle(field)
    for name, record in _records(raw, "hopf_algebras"):
        bundle.hopf_algebras[name] = _hopf(field, record,
                                           f"hopf_algebras.{name}")
    for name, record in _records(raw, "comodule_algebras"):
        where = f"comodule_algebras.{name}"
        href, hopf = _reference(record, "hopf", where, bundle.hopf_algebras,
                                "hopf algebra")
        alg = _algebra(field, record, where)
        coaction = _matrix(field, _require(record, "coaction", where),
                           alg.dim * hopf.dim, alg.dim, f"{where}.coaction",
                           (alg.dim, hopf.dim, alg.dim))
        ca = ComoduleAlgebraData(hopf, alg, _leg_columns(coaction, hopf.dim))
        report = ca.validate()
        if not report.passed:
            raise ValidationError(where, *report.failures[0])
        ca.hopf_name = href
        bundle.comodule_algebras[name] = ca
    for name, record in _records(raw, "modules"):
        where = f"modules.{name}"
        cref, ca = _reference(record, "comodule_algebra", where,
                              bundle.comodule_algebras, "comodule algebra")
        b = ca.coinvariants()
        dim = _dim(record, where)
        actions_raw = _require(record, "actions", where)
        if not (isinstance(actions_raw, list) and len(actions_raw) == b.dim):
            raise ParseError(f"{where}.actions",
                             f"expected {b.dim} action matrices (one per "
                             f"coinvariant basis element)")
        cols = [_columns(_matrix(field, a, dim, dim, f"{where}.actions[{k}]"))
                for k, a in enumerate(actions_raw)]
        module = BModule(b, dim, [[(r, k, x) for k, col in enumerate(cols)
                                   for r, x in col[m]] for m in range(dim)])
        report = module.validate()
        if not report.passed:
            raise ValidationError(where, *report.failures[0])
        module.ca_name = cref
        bundle.modules[name] = module
    for name, record in _records(raw, "crossed_products"):
        where = f"crossed_products.{name}"
        href, hopf = _reference(record, "hopf", where, bundle.hopf_algebras,
                                "hopf algebra")
        base = _algebra(field, _object(_require(record, "base", where),
                                       f"{where}.base"), f"{where}.base")
        db, dh = base.dim, hopf.dim
        omega = _matrix(field, _require(record, "omega", where), db,
                        dh * db, f"{where}.omega", (db, dh, db))
        sigma = _matrix(field, _require(record, "sigma", where), db,
                        dh * dh, f"{where}.sigma", (db, dh, dh))
        sigma_bar = None
        if "sigma_bar" in record:
            sigma_bar = _matrix(field, record["sigma_bar"], db, dh * dh,
                                f"{where}.sigma_bar", (db, dh, dh))
        bundle.crossed_products[name] = (base, hopf, omega, sigma, sigma_bar,
                                         href)
    return bundle


# -- encoding ----------------------------------------------------------------


def _emit_vector(field, vec):
    return [field.format(x) for x in vec]


def _emit_matrix(field, m):
    out = []
    for i in range(m.rows):
        for j in range(m.cols):
            x = m.get(i, j)
            if x != field.zero:
                out.append([i, j, field.format(x)])
    return out


def _emit_tensor3(field, table, d_in2=None):
    """The sorted [i, j, k, coeff] quadruples of a 3-leg tensor given by its
    _columns, column j * d_in2 + k listing (i, x) (mul, omega, sigma), or,
    without d_in2, by its _leg_columns, column k listing (i, j, x) (comul,
    coaction)."""
    quads = ([(i, j, k, x) for k, terms in enumerate(table)
              for i, j, x in terms] if d_in2 is None else
             [(i, *divmod(col, d_in2), x) for col, terms in enumerate(table)
              for i, x in terms])
    return [[i, j, k, field.format(x)] for i, j, k, x in sorted(quads)]


def emit_algebra(field, alg):
    return {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "mul": _emit_tensor3(field, alg.mul_table, alg.dim),
        "unit": _emit_vector(field, alg.unit),
    }


def emit_hopf(field, hopf):
    record = emit_algebra(field, hopf.algebra)
    record.update({
        "comul": _emit_tensor3(field, hopf.coalgebra.comul_table),
        "counit": _emit_vector(field, hopf.coalgebra.counit.data),
        "antipode": _emit_matrix(field, hopf.antipode),
        "antipode_inv": _emit_matrix(field, hopf.antipode_inv),
    })
    return record


def emit_comodule_algebra(field, ca, hopf_name):
    record = emit_algebra(field, ca.algebra)
    record.update({
        "hopf": hopf_name,
        "coaction": _emit_tensor3(field, ca.coaction_table),
    })
    return record


def emit_module(field, module, ca_name):
    """actions[k] lists, sorted, the [r, m, x] with e_m . b_k = Sum x e_r."""
    return {
        "comodule_algebra": ca_name,
        "dim": module.dim,
        "actions": [sorted([r, m, field.format(x)] for m, terms in
                           enumerate(module.action_table)
                           for r, j, x in terms if j == k)
                    for k in range(module.base.dim)],
    }


def emit_bundle(bundle):
    """Serialize a WorkspaceBundle back to the schema dict."""
    out = {"field": field_name(bundle.field)}
    if bundle.hopf_algebras:
        out["hopf_algebras"] = {
            name: emit_hopf(bundle.field, h)
            for name, h in sorted(bundle.hopf_algebras.items())}
    if bundle.comodule_algebras:
        out["comodule_algebras"] = {
            name: emit_comodule_algebra(bundle.field, ca,
                                        getattr(ca, "hopf_name", "hopf"))
            for name, ca in sorted(bundle.comodule_algebras.items())}
    if bundle.modules:
        out["modules"] = {
            name: emit_module(bundle.field, m, getattr(m, "ca_name", "ca"))
            for name, m in sorted(bundle.modules.items())}
    if bundle.crossed_products:
        out["crossed_products"] = {}
        for name, rec in sorted(bundle.crossed_products.items()):
            base, hopf, omega, sigma, sigma_bar, href = rec
            record = {
                "hopf": href,
                "base": emit_algebra(bundle.field, base),
                "omega": _emit_tensor3(bundle.field, _columns(omega),
                                       base.dim),
                "sigma": _emit_tensor3(bundle.field, _columns(sigma),
                                       hopf.dim),
            }
            if sigma_bar is not None:
                record["sigma_bar"] = _emit_tensor3(
                    bundle.field, _columns(sigma_bar), hopf.dim)
            out["crossed_products"][name] = record
    return out


def dump_bundle(bundle, path):
    with open(path, "w") as fh:
        json.dump(emit_bundle(bundle), fh, indent=1, sort_keys=True)
        fh.write("\n")
