"""Result records: frozen, slot-less NamedTuples, and the four that validate
their fields do so at construction (under python -O as well)."""

import pytest

from quadfields import bounds, census, charsums, harvest, sequences, sieve
from quadfields.arith import InvariantError

LAYERS = (sequences, census, harvest, sieve, charsums, bounds)


def _one_of_each():
    # a real instance of every record type, each from the call that returns it
    f = sequences.Polynomial.parse("2,0,0,1")
    spec = sequences.validate(sequences.Polynomial.parse("1,6,1"), 2)
    pset = harvest.build_prime_set(2, 100.0)
    run = sieve.run_sieve(spec, 0, 20, 17, pset)
    scan = charsums.weil_scan(f, 2, 50)
    ts = bounds.endgame_system(10**6, 0.677, 1.0, 10**3)
    return [
        f, spec, pset, pset.members[0], harvest.density_report(2, 1000, 0.677),
        census.squarefree_kernel(12, 10), census.count_Q_total(spec, 0, 5, 100),
        run, run.part, run.cert, sieve.diagnostics(run),
        charsums.complete_sum_p(f, 2, 101, 1), scan, scan.rows[0], charsums.hb_average(3, 3),
        ts, bounds.grakol_optimize(ts), bounds.exponent_table(0.677),
        bounds.regime_bound(0.677, 10**6, 100), bounds.interpolation_check(0.677),
    ]


def test_every_record_is_frozen():
    records = _one_of_each()
    defined = {obj for layer in LAYERS for obj in vars(layer).values()
               if isinstance(obj, type) and obj.__module__ == layer.__name__
               and issubclass(obj, tuple) and not obj.__name__.startswith("_")}
    assert {type(r) for r in records} == defined and len(defined) == 20
    for r in records:
        for name in type(r)._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        with pytest.raises(AttributeError):  # no __dict__ either, so no stray attributes
            r.extra = None


@pytest.mark.parametrize("make, error", [
    (lambda: sequences.Polynomial(()), ValueError),
    (lambda: sequences.Polynomial((1, 0)), ValueError),
    (lambda: sequences.Polynomial.parse("3,0"), ValueError),
    (lambda: harvest.SievePrime(107, 7, 106, True), ValueError),
    (lambda: harvest.SievePrime(13, 4, 6, True), ValueError),
    (lambda: bounds.TermSystem((), ((1.0, 1.0),), 1.0, 2.0), ValueError),
    (lambda: bounds.TermSystem(((1.0, 1.0),), ((1.0, 1.0),), z1=5.0, z2=2.0), ValueError),
    (lambda: charsums.CharSumResult(5 + 0j, 7, 3, 0, "complete_p", 1.0), InvariantError),
], ids=["poly-empty", "poly-zero-lead", "poly-parse", "sieveprime-divides",
        "sieveprime-large", "termsystem-empty", "termsystem-range", "charsum-trivial"])
def test_validating_records_reject_bad_fields(make, error):
    with pytest.raises(error):
        make()

