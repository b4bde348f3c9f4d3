import pytest

from quasicross import criteria
from quasicross.criteria import CriterionOutcome, CriterionStatus


@pytest.fixture
def firing_at(monkeypatch):
    """firing_at(criterion_id, dims) makes that entry of the criterion table
    rule out the dimensions in dims too, as a wrong criterion would.  The
    table is the one criteria.outcomes reads, and that each Verdicts
    constructed from then on builds its walk from; that walk calls the
    criterion only where criteria's rules let it fire."""

    def wrong(criterion_id, dims, cid, fn):
        def check(shape):
            if shape.n in dims:
                return CriterionOutcome(cid, CriterionStatus.RULED_OUT, {"n": shape.n})
            return fn(shape)

        return check if cid == criterion_id else fn

    def patch(criterion_id, dims):
        table = tuple((cid, wrong(criterion_id, dims, cid, fn)) for cid, fn in criteria.SHAPE_CRITERIA)
        monkeypatch.setattr(criteria, "SHAPE_CRITERIA", table)

    return patch


@pytest.fixture
def counting_criteria(monkeypatch):
    """counting_criteria() wraps every entry of the criterion table that
    criteria.outcomes reads, and that each Verdicts constructed from then on
    builds its walk from; it returns the list of (criterion, shape) calls
    made from then on."""

    def patch():
        calls = []

        def counted(cid, fn):
            def check(shape):
                calls.append((cid, shape))
                return fn(shape)

            return check

        table = tuple((cid, counted(cid, fn)) for cid, fn in criteria.SHAPE_CRITERIA)
        monkeypatch.setattr(criteria, "SHAPE_CRITERIA", table)
        return calls

    return patch
