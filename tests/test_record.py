"""The immutable records share one base: assignment, pickling, repr, hash."""
import copy
import pickle
from array import array
from fractions import Fraction

import pytest

from mukaitwist import (
    BField,
    CohomologySpec,
    E4Page,
    FGAbelianGroup,
    IntMatrix,
    Isometry,
    Lattice,
    MukaiVector,
    TrialConfig,
    VerificationReport,
    _kernels,
    canonical_b_field,
    cover_involution_h2,
    e4_page,
    full_lattice,
    standard_lattice,
    twisted_involution_matrix,
    verify_square_congruence,
)
from mukaitwist.verify import _invariant_basis, _Pool

RECORDS = [
    TrialConfig(trials=5, seed=3, coord_bound=9),
    VerificationReport("square-congruence", 3, {"ell": [1, 2]}, 0.5),
    e4_page(CohomologySpec.enriques(twisted=True)),
    FGAbelianGroup(1, (2, 4)),
    CohomologySpec.enriques(twisted=True),
    IntMatrix(2, 3, [1, -2, 0, 4, 5, -6]),
    standard_lattice("u"),
    cover_involution_h2(),
    _Pool(array("b", range(-24, 24))),  # T, -1 and the 48 stored entries of one reflection
    MukaiVector(Fraction(1, 2), (0,) * 21 + (3,), -1),
    canonical_b_field(),
]


@pytest.fixture(params=RECORDS, ids=lambda r: type(r).__name__)
def record(request):
    return request.param


def test_fields_and_unknown_names_refuse_assignment_and_deletion(record):
    cls = type(record).__name__
    before = repr(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError) as exc:
            setattr(record, name, None)
        assert str(exc.value) == f"cannot assign to field {name!r}: {cls} is immutable"
        with pytest.raises(AttributeError) as exc:
            delattr(record, name)
        assert str(exc.value) == f"cannot delete field {name!r}: {cls} is immutable"
    assert repr(record) == before


def test_pickle_and_deepcopy_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record and type(clone) is type(record)
    clone = copy.deepcopy(record)
    assert clone == record and clone is not record
    assert [getattr(clone, name) for name in clone._fields] == [getattr(record, name) for name in record._fields]


def test_repr_lists_the_fields_in_order(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_equality_needs_the_same_class(record):
    assert record == copy.copy(record)
    assert record != tuple(getattr(record, name) for name in record._fields)
    assert all(record != other for other in RECORDS if type(other) is not type(record))


def test_hash_is_only_for_hashable_records(record):
    if type(record).__hash__ is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(copy.deepcopy(record))


def test_one_private_base():
    import mukaitwist
    from mukaitwist._record import Record

    records = (
        TrialConfig,
        VerificationReport,
        E4Page,
        FGAbelianGroup,
        CohomologySpec,
        IntMatrix,
        Lattice,
        Isometry,
        MukaiVector,
        BField,
        _Pool,
    )
    assert all(issubclass(cls, Record) for cls in records)
    assert {type(record) for record in RECORDS} == set(records)
    assert "Record" not in dir(mukaitwist)


def test_no_record_keeps_an_instance_dict():
    # A field in an instance __dict__ could be rewritten past Record.__setattr__.
    from mukaitwist._record import Record

    subclasses, found = [Record], set()
    while subclasses:
        cls = subclasses.pop()
        found.add(cls)
        subclasses += cls.__subclasses__()
    found.discard(Record)
    assert found == {type(record) for record in RECORDS}
    assert [cls.__name__ for cls in found if cls.__dictoffset__] == []
    assert not any(hasattr(record, "__dict__") for record in RECORDS)


def test_assignment_cannot_bypass_the_checks():
    # alpha (7,) is no element of h3 = Z/2, and (4, 2) is no divisibility chain.
    spec = CohomologySpec.enriques(twisted=True)
    with pytest.raises(AttributeError):
        spec.alpha = (7,)
    group = FGAbelianGroup(0, (2,))
    with pytest.raises(AttributeError):
        group.torsion = (4, 2)
    assert spec.alpha == (1,) and group.torsion == (2,)


def test_a_cached_lattice_cannot_be_poisoned():
    # Each assignment, if it took, would change every later check in the process:
    # the first fails the square check, the second splits the full Gram's entries
    # from its compiled form.
    h2 = standard_lattice("mukai_h2")
    gram = full_lattice().gram
    saved_gram, saved_entries = h2.gram, gram.flat
    try:
        with pytest.raises(AttributeError):
            h2.gram = IntMatrix.identity(22)
        with pytest.raises(AttributeError):
            gram.flat = (0,) * 576
    finally:
        object.__setattr__(h2, "gram", saved_gram)
        object.__setattr__(gram, "flat", saved_entries)
    assert verify_square_congruence(TrialConfig(trials=50)).passed


def test_compiled_forms_refuse_assignment():
    gram = full_lattice().gram
    form = gram.bilinear
    try:
        with pytest.raises(AttributeError, match="cannot assign to field 'bilinear': IntMatrix is immutable"):
            gram.bilinear = lambda u, v: 0
        with pytest.raises(AttributeError, match="cannot delete field 'bilinear': IntMatrix is immutable"):
            del gram.bilinear
    finally:
        object.__setattr__(gram, "bilinear", form)
    assert gram.bilinear is form


# The matrices that a cache shares for the life of the process.
CACHED_MATRICES = {
    "full": lambda: full_lattice().gram,
    **{name: lambda name=name: standard_lattice(name).gram for name in ("u", "minus_e8", "mukai_h2")},
    "invariant_basis": lambda: _invariant_basis()[0],
    "twisted_involution": lambda: twisted_involution_matrix().matrix,
}


@pytest.mark.parametrize("name", CACHED_MATRICES)
def test_a_cached_matrix_keeps_its_compiled_forms_out_of_reach(name):
    # With an instance __dict__, a kept form could be swapped past the refusals:
    # a swapped bilinear on the full Gram would make every trial's pairing 0.
    m = CACHED_MATRICES[name]()
    rows = m.to_rows()
    u, v = tuple(range(1, m.rows + 1)), tuple(range(2, m.cols + 2))
    assert _kernels.matvec(m, v) == tuple(sum(a * x for a, x in zip(row, v)) for row in rows)
    assert _kernels.bilinear(m, u, v) == sum(ui * a * vj for ui, row in zip(u, rows) for a, vj in zip(row, v))
    assert not hasattr(m, "__dict__")
    for form in ("matvec", "bilinear"):
        kept = getattr(m, form)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{form}': IntMatrix is immutable"):
            setattr(m, form, lambda *args: 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{form}': IntMatrix is immutable"):
            delattr(m, form)
        assert getattr(m, form) is kept
