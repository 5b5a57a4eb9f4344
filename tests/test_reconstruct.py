import importlib
import json
import pathlib
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from ratrecon.errors import (
    AnchorSearchFailed,
    BudgetExhausted,
    DomainTooSparse,
    EmptyHistogram,
    TooManyFailures,
    VerificationFailed,
)
from ratrecon.expr import eval_expr, parse, to_ratfun
from ratrecon.fields import QQ, PrimeField, derive_rng, height_box_sizes, random_element
from ratrecon.interp import detect_profile_with_fit
from ratrecon.poly import Poly1, PolyN
from ratrecon.ratfun import (
    RatFunN,
    degree_and_ord,
    format_ratfunn,
    normalize_ratfun1,
    normalize_ratfunn,
)
from ratrecon.reconstruct import (
    MAX_DEGREE_CAP,
    SAMPLES_PER_CLASS_CAP,
    VALIDATION_EXTRA_CAP,
    VERIFY_TRIALS_CAP,
    Agreement,
    ReconConfig,
    SliceOracle,
    choose_anchors,
    classify_slices,
    maximal_class,
    reconstruct,
    slice_oracle,
    verify_agreement,
)

engine = importlib.import_module("ratrecon.reconstruct")
ratfun = importlib.import_module("ratrecon.ratfun")

FP101 = PrimeField(101)
FP = PrimeField(1000003)


def q(n, d=1):
    return Fraction(n, d)


def oracle_from_ratfunn(f: RatFunN) -> SliceOracle:
    return SliceOracle(f.nvars, f.field, lambda pt: f.eval_or_none(pt))


def pn(field, nvars, terms):
    return PolyN(field, nvars, {e: field.from_int(c) for e, c in terms.items()})


def xy_over(field):
    # (x*y + 1)/(x - y)
    num = pn(field, 2, {(1, 1): 1, (0, 0): 1})
    den = pn(field, 2, {(1, 0): 1, (0, 1): -1})
    return normalize_ratfunn(num, den)


def cube_example(field):
    # z^3 + z*w^3 as a rational function with denominator 1
    num = pn(field, 2, {(3, 0): 1, (1, 3): 1})
    return normalize_ratfunn(num, pn(field, 2, {(0, 0): 1}))


def test_slice_axis0_closed_form():
    f = cube_example(QQ)
    oracle = oracle_from_ratfunn(f)
    a = q(2)
    sub = slice_oracle(oracle, 0, (a,))   # z -> z^3 + a^3 z
    for z in map(q, range(-3, 4)):
        assert sub(z) == z ** 3 + a ** 3 * z


def test_slice_axis1_closed_form():
    f = cube_example(QQ)
    oracle = oracle_from_ratfunn(f)
    a = q(2)
    sub = slice_oracle(oracle, 1, (a,))   # w -> a*w^3 + a^3
    for w in map(q, range(-3, 4)):
        assert sub(w) == a * w ** 3 + a ** 3


def test_slice_constant():
    oracle = SliceOracle(2, QQ, lambda pt: q(5))
    sub = slice_oracle(oracle, 1, (q(3),))
    assert sub(q(9)) == q(5)


def test_classify_slices_xy():
    # generic slices are (1, 0); draws hitting x = 0 degenerate to -1/y,
    # whose (n, m) = (0, 1) lies below the maximum
    oracle = oracle_from_ratfunn(xy_over(QQ))
    cfg = ReconConfig(samples_per_class=20, seed=5)
    cls = classify_slices(oracle, 1, cfg, derive_rng(5, "t"))
    assert cls.de == maximal_class(cls.histogram) == (1, 0)
    assert cls.failures == 0
    assert 3 <= cls.total == sum(cls.histogram.values()) < 20
    full = classify_slices(oracle, 1, cfg, derive_rng(5, "t"), full=True)
    assert full.histogram[(1, 0)] >= 15 and full.total == 20
    assert full.de == (1, 0) and full.failures == 0


def test_classify_slices_cube():
    oracle = oracle_from_ratfunn(cube_example(QQ))
    cfg = ReconConfig(samples_per_class=12, seed=6)
    cls = classify_slices(oracle, 1, cfg, derive_rng(6, "t"))
    assert cls.de == (3, 3) and cls.total < 12
    full = classify_slices(oracle, 1, cfg, derive_rng(6, "t"), full=True)
    assert full.de == (3, 3) and full.histogram[(3, 3)] >= 9


def test_classify_slices_pole_heavy():
    # 1/(x - y): slices along y are (d, e) = (1, -1); diagonal holes resampled
    f = normalize_ratfunn(pn(QQ, 2, {(0, 0): 1}),
                          pn(QQ, 2, {(1, 0): 1, (0, 1): -1}))
    oracle = oracle_from_ratfunn(f)
    cls = classify_slices(oracle, 1, ReconConfig(samples_per_class=15, seed=7),
                          derive_rng(7, "t"))
    assert set(cls.histogram) == {(1, -1)}


def test_classify_too_many_failures():
    oracle = SliceOracle(2, QQ, lambda pt: None)
    with pytest.raises(TooManyFailures):
        classify_slices(oracle, 1, ReconConfig(samples_per_class=10, seed=8),
                        derive_rng(8, "t"))


def dead_row_oracle(dead_x1, log):
    """x1*x2 + 1 over F_101, except for a pole everywhere on x1 in
    `dead_x1`, which holds 0; logs every query's x1."""
    def fn(pt):
        log.append(pt[0].residue)
        if pt[0].residue in dead_x1:
            return None
        return pt[0] * pt[1] + 1
    return SliceOracle(2, FP101, fn)


def test_classify_redraws_dead_slices():
    # 40 of the 101 values of x1 kill their slice; each dead slice is
    # replaced, and a tuple found dead is queried in one detection only
    dead = set(range(40))
    log = []
    cls = classify_slices(dead_row_oracle(dead, log), 1,
                          ReconConfig(samples_per_class=20, seed=11),
                          derive_rng(11, "t"), full=True)
    assert cls.histogram == {(1, 1): 20} and cls.failures == 0
    seen_dead = Counter(x for x in log if x in dead)
    assert seen_dead and set(seen_dead.values()) == {101}


def test_classify_dead_slices_beyond_redraws_are_failures():
    # 90 of the 101 values are dead.  Replay the draws of the stream: a
    # dead draw spends one of the 20 redraws (a known-dead one too, without
    # a query); once they are spent, a dead draw is a failure
    dead = set(range(90))
    rng = derive_rng(12, "t")
    found, redraws, failures = set(), 20, 0
    for _ in range(20):
        while True:
            x1 = random_element(FP101, rng, 10).residue
            rng.getrandbits(63)
            if x1 not in dead:
                break
            found.add(x1)
            if not redraws:
                failures += 1
                break
            redraws -= 1
    assert failures > 4

    log = []
    with pytest.raises(TooManyFailures, match=f"^{failures}/20 "):
        classify_slices(dead_row_oracle(dead, log), 1,
                        ReconConfig(samples_per_class=20, seed=12),
                        derive_rng(12, "t"), full=True)
    assert Counter(x for x in log if x in dead) == {x: 101 for x in found}


def test_classify_budget_failure_is_not_redrawn(monkeypatch):
    # a slice that is defined but not rational within the budget counts
    # as a failure at once: exactly samples_per_class detections run
    calls = []

    def counting(*args):
        calls.append(1)
        return detect_profile_with_fit(*args)

    monkeypatch.setattr(engine, "detect_profile_with_fit", counting)
    cfg = ReconConfig(samples_per_class=20, seed=14)
    rng = derive_rng(14, "t")
    cls = classify_slices(budget_failing_oracle(), 1, cfg, rng, full=True)
    assert len(calls) == 20
    assert 0 < cls.failures == 20 - sum(cls.histogram.values())


def budget_failing_oracle():
    """x1*x2 over F_101, except that the slices on x1 < 10 have no
    low-degree fit."""
    def fn(pt):
        x1, x2 = pt[0].residue, pt[1].residue
        if x1 < 10:
            return FP101.from_int(pow(3, x2 * x2 + x1, 101))
        return pt[0] * pt[1]
    return SliceOracle(2, FP101, fn)


def test_a_failed_slice_makes_the_classification_full(monkeypatch):
    # at seed 23 the second slice fails: the run then draws all 20 slices,
    # as a full classification does, and refuses or not exactly as it would
    outcomes = []

    def logging(*args):
        try:
            found = detect_profile_with_fit(*args)
        except BudgetExhausted:
            outcomes.append("failed")
            raise
        outcomes.append("classified")
        return found

    monkeypatch.setattr(engine, "detect_profile_with_fit", logging)
    oracle, cfg = budget_failing_oracle(), ReconConfig(samples_per_class=20, seed=23)
    cls = classify_slices(oracle, 1, cfg, derive_rng(23, "t"))
    assert outcomes[:2] == ["classified", "failed"] and len(outcomes) == 20
    assert (cls.failures, cls.total, cls.de) == (outcomes.count("failed"), 20, (1, 1))
    assert cls == classify_slices(oracle, 1, cfg, derive_rng(23, "t"), full=True)


def test_recon_q_dead_slices_solve():
    # 6 of the root's 20 classification slices draw x1 = 0, a pole of every
    # point; they are holes in the domain, not evidence against rationality
    text = "(36*x1*x2^2 - 216*x2^2 - 2016)/(112*x1^2*x2 - 84*x1*x2^2 + 567*x1)"
    ast = parse(text, 2)
    oracle = SliceOracle(2, QQ, lambda pt: eval_expr(ast, pt, QQ))
    rep = reconstruct(oracle, ReconConfig(seed=877547917))
    assert format_ratfunn(rep.result) == text
    assert rep.result.same_function(to_ratfun(ast, QQ, 2))


def test_maximal_class_examples():
    # (d, e) -> (n, m): (1, 0) -> (1, 1), (0, 0) -> (0, 0), (2, 1) -> (2, 1),
    # (1, 1) -> (1, 0), (1, -1) -> (0, 1)
    assert maximal_class({(1, 0): 18, (0, 0): 2}) == (1, 0)
    assert maximal_class({(2, 1): 10, (1, 0): 10}) == (2, 1)
    assert maximal_class({(1, 1): 5, (1, -1): 5}) == (1, 0)
    assert maximal_class({(1, -1): 1}) == (1, -1)
    with pytest.raises(EmptyHistogram):
        maximal_class({})


def test_reconstruct_refuses_a_q_height_box_too_small():
    # three values at height 1, six needed (a pool of 2 plus 4 fresh points)
    calls = []
    oracle = SliceOracle(2, QQ, lambda pt: calls.append(pt) or q(1))
    with pytest.raises(ValueError, match=r"^height bound 1 gives 3 values over Q, "
                       r"fewer than the 6 .* at least 2$"):
        reconstruct(oracle, ReconConfig(height_bound=1))
    assert calls == []
    # F_p ignores the height; Q at height 2 has seven values
    reconstruct(SliceOracle(2, FP101, lambda pt: FP101.one), ReconConfig(height_bound=1))
    reconstruct(oracle, ReconConfig(height_bound=2))
    # the count stops at the least sufficient height, whatever the bound
    ReconConfig(height_bound=10 ** 12).check_field(QQ)
    with pytest.raises(ValueError, match=r"gives 15 values .* at least 4$"):
        ReconConfig(height_bound=3, validation_extra=20).check_field(QQ)


def test_choose_anchors():
    # distinct anchors on one stream: a node that takes one more after its
    # l+1 gets the anchor a longer take would have given
    oracle = oracle_from_ratfunn(xy_over(QQ))
    cfg = ReconConfig(seed=9)
    anchors = list(islice(choose_anchors(oracle, cfg, derive_rng(9, "a")), 3))
    assert len(anchors) == len(set(anchors)) == 3
    longer = list(islice(choose_anchors(oracle, cfg, derive_rng(9, "a")), 4))
    assert longer[:3] == anchors and longer[3] not in anchors


def test_choose_anchors_single():
    oracle = SliceOracle(2, QQ, lambda pt: q(5))
    stream = choose_anchors(oracle, ReconConfig(seed=10), derive_rng(10, "a"))
    assert next(stream) is not None


def test_choose_anchors_failure():
    # x^5 - x vanishes on all of F_5: every draw is a pole of every slice
    f5 = PrimeField(5)
    oracle = SliceOracle(2, f5, lambda pt: None)
    den = Poly1(f5, [f5.zero, -f5.one, f5.zero, f5.zero, f5.zero, f5.one])
    stream = choose_anchors(oracle, ReconConfig(seed=11), derive_rng(11, "a"), [den])
    with pytest.raises(AnchorSearchFailed, match=r"after 100 attempts \(found 0\)"):
        next(stream)
    # without the pole, the five values are the only anchors
    stream = choose_anchors(oracle, ReconConfig(seed=11), derive_rng(11, "a"))
    assert sorted(b.residue for b in islice(stream, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(AnchorSearchFailed, match=r"after 100 attempts \(found 5\)"):
        next(stream)


def test_verify_agreement_counts():
    f = xy_over(QQ)
    oracle = oracle_from_ratfunn(f)
    trials, agreements, skips = verify_agreement(oracle, f, 50, derive_rng(12, "v"))
    assert trials == 50 and agreements == trials - skips
    perturbed = f + normalize_ratfunn(pn(QQ, 2, {(0, 0): 1}), pn(QQ, 2, {(0, 0): 1}))
    _, agree2, skip2 = verify_agreement(oracle, perturbed, 50, derive_rng(12, "v"))
    assert agree2 == 0
    assert verify_agreement(oracle, f, 0, derive_rng(13, "v")) == (0, 0, 0)


def test_reconstruct_xy_over_fp101():
    # F_101 has sqrt(-1), so two x values give genuinely constant slices;
    # the maximal class is still (1, 0) and the roundtrip is exact
    f = xy_over(FP101)
    report = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=42))
    assert report.result.same_function(f)
    trials, agreements, skips = report.verification
    assert agreements == trials - skips
    assert maximal_class(report.class_histogram) == (1, 0)
    assert report.class_histogram[(1, 0)] >= 3


def test_reconstruct_polynomial_example():
    f = cube_example(FP)
    report = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=43))
    assert report.result.same_function(f)
    one = pn(FP, 2, {(0, 0): 1})
    assert report.result.den == one  # denominator exactly 1


def test_reconstruct_constant_zero():
    oracle = SliceOracle(2, FP, lambda pt: FP.zero)
    report = reconstruct(oracle, ReconConfig(seed=44))
    assert report.result.is_zero()


def test_reconstruct_arity1_base_case():
    f1 = normalize_ratfun1(Poly1.from_ints(QQ, [1]), Poly1.from_ints(QQ, [0, 1]))
    oracle = SliceOracle(1, QQ,
                         lambda pt: f1.eval(pt[0]) if f1.defined_at(pt[0]) else None)
    report = reconstruct(oracle, ReconConfig(seed=45))
    assert report.result.same_function(f1.to_ratfunn(1))


def test_reconstruct_verification_failure_on_unstable_oracle():
    # an oracle that is NOT slice-rational but fools low-degree fits locally
    # would be caught by verification; simulate with a corrupted lookup
    f = xy_over(FP101)
    base = oracle_from_ratfunn(f)
    poison = {}

    def fn(pt):
        v = base.eval(pt)
        if v is None:
            return None
        key = pt
        if key not in poison:
            poison[key] = len(poison) % 97 == 13
        return v + 1 if poison[key] else v

    with pytest.raises((VerificationFailed, TooManyFailures)):
        reconstruct(SliceOracle(2, FP101, fn), ReconConfig(seed=46))


def test_verify_agreement_reports_first_mismatch():
    f = xy_over(QQ)
    oracle = oracle_from_ratfunn(f)
    assert verify_agreement(oracle, f, 50, derive_rng(12, "v")).mismatch is None
    shifted = f + normalize_ratfunn(pn(QQ, 2, {(0, 0): 1}), pn(QQ, 2, {(0, 0): 1}))
    tally = verify_agreement(oracle, shifted, 50, derive_rng(12, "v"))
    point, want, got = tally.mismatch
    assert want == f.eval(point) and got == want + 1


def test_verification_failure_names_point_and_values():
    # Corrupt the oracle at the last fresh point a clean run queries.  Only
    # the root's verification, which runs last, asks for it, so the run
    # fails there and the error carries that point and both values.
    f = xy_over(FP)
    queried = []
    cfg = ReconConfig(seed=12)
    reconstruct(SliceOracle(2, FP, lambda pt: queried.append(pt) or
                            f.eval_or_none(pt)), cfg)
    bad = [pt for pt in dict.fromkeys(queried) if f.eval_or_none(pt) is not None][-1]
    truth = f.eval(bad)

    def corrupted(pt):
        return truth + 1 if pt == bad else f.eval_or_none(pt)

    with pytest.raises(VerificationFailed) as info:
        reconstruct(SliceOracle(2, FP, corrupted), cfg)
    err = info.value
    assert (err.path, err.point, err.expected, err.got) == ((), bad, truth + 1, truth)
    assert str(err) == (f"reconstruction mismatch at recursion path (), point "
                        f"({bad[0]}, {bad[1]}): oracle {truth + 1}, result {truth}")


def rand_ratfunn(field, rng, nvars, maxdeg, height=9):
    def rand_pn():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
            terms[e] = random_element(field, rng, height)
        return PolyN(field, nvars, terms)

    while True:
        num, den = rand_pn(), rand_pn()
        if den.is_zero():
            continue
        f = normalize_ratfunn(num, den)
        return f


@pytest.mark.parametrize("field", [FP, QQ])
def test_reconstruct_roundtrip_2var(field):
    rng = random.Random(47)
    for k in range(4):
        f = rand_ratfunn(field, rng, 2, 3 if field == FP else 2)
        report = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=100 + k))
        assert report.result.same_function(f)


def test_reconstruct_roundtrip_large_prime():
    big = PrimeField(1000000007)
    rng = random.Random(49)
    for k in range(2):
        f = rand_ratfunn(big, rng, 2, 3)
        report = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=400 + k))
        assert report.result.same_function(f)


def test_reconstruct_roundtrip_3var_smoke():
    rng = random.Random(48)
    f = rand_ratfunn(FP, rng, 3, 2)
    report = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=200))
    assert report.result.same_function(f)
    assert len(report.anchors) >= 2  # recursion depth >= 2 exercised


def test_reconstruct_deterministic_reports():
    f = xy_over(FP101)
    r1 = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=314))
    r2 = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=314))
    assert json.dumps(r1.to_json(), sort_keys=True) == \
        json.dumps(r2.to_json(), sort_keys=True)


def slice_last(f: RatFunN, prefix):
    """The univariate function of the last variable of f with the leading
    nvars-1 coordinates fixed at `prefix`; raises ZeroDenominator if the
    denominator vanishes there."""
    field, last = f.field, f.nvars - 1

    def poly1(p):
        coeffs = [field.zero] * (int(p.degree_in(last)) + 1 if p.terms else 0)
        for e, c in p.terms.items():
            for a, k in zip(prefix, e):
                if k:
                    c = c * a ** k
            coeffs[e[last]] = coeffs[e[last]] + c
        return Poly1(field, coeffs)
    return normalize_ratfun1(poly1(f.num), poly1(f.den))


def test_reconstructed_slice_has_dominant_profile():
    f = xy_over(FP)
    report = reconstruct(oracle_from_ratfunn(f), ReconConfig(seed=315))
    (d, e) = maximal_class(report.class_histogram)
    rng = derive_rng(316, "slice")
    g1 = slice_last(report.result, [random_element(FP, rng, 10)])
    assert degree_and_ord(g1) == (d, e)


def test_oracle_replay_identical_result():
    f = xy_over(FP101)
    base = oracle_from_ratfunn(f)
    log = {}

    def recording(pt):
        v = base.eval(pt)
        log[pt] = v
        return v

    cfg = ReconConfig(seed=317)
    r1 = reconstruct(SliceOracle(2, FP101, recording), cfg)

    def replay(pt):
        return log[pt]  # same seed means the same query sequence

    r2 = reconstruct(SliceOracle(2, FP101, replay), cfg)
    assert json.dumps(r1.to_json(), sort_keys=True) == \
        json.dumps(r2.to_json(), sort_keys=True)


def test_root_verification_is_reported_not_repeated():
    # The root node verifies on the stream derive_rng(seed, "verify"); the
    # report carries those tallies.  A second pass on that stream repeats
    # them exactly, so dropping it keeps the report and saves verify_trials
    # oracle calls: 1246 calls before, with the repeated pass, and 1046
    # without it.  Each verification run now asks the oracle once per
    # distinct point, and the three arity-1 leaves over F_101 draw their 200
    # points from 101 values, so 698 calls remained.  The root's
    # classification now stops after three slices instead of 20: 561 calls.
    # Each leaf's first 20 trials are now its anchor's probe answers, and a
    # probe asks each distinct point once: 499 calls.  Only the root checks
    # its result now, unless that check fails: 301 calls.  Anchors are now
    # taken without a probe, which asked 54 distinct points: 247 calls.
    f = xy_over(FP101)
    calls = []
    oracle = SliceOracle(2, FP101, lambda pt: calls.append(pt) or f.eval_or_none(pt))
    cfg = ReconConfig(seed=10)
    report = reconstruct(oracle, cfg)
    assert len(calls) == 247
    assert report.to_json() == {
        "result": "(x1*x2 + 1)/(x1 - x2)",
        "coprime_certified": True,
        "arity": 2,
        "field": "fp:101",
        "class_histogram": {"1,0": 3},
        "classify_failures": 0,
        "anchors": [["14", "81", "15"]],
        "nodes": {"recursed": 4, "sparse": 0, "fallbacks": 0},
        "verification": {"trials": 200, "agreements": 197, "undefined_skips": 3},
        "config": cfg.to_json(),
    }
    again = verify_agreement(oracle, report.result, cfg.verify_trials,
                             derive_rng(cfg.seed, "verify"), cfg.height_bound)
    assert again == report.verification


def parent_verify_agreement(oracle, g, trials, rng, height_bound):
    # verify_agreement before the per-run memo: every draw asks both sides
    agreements = skips = 0
    mismatch = None
    for _ in range(trials):
        point = tuple(random_element(oracle.field, rng, height_bound)
                      for _ in range(oracle.arity))
        want = oracle.eval(point)
        got = g.eval_or_none(point)
        if want is None or got is None:
            skips += 1
        elif want == got:
            agreements += 1
        elif mismatch is None:
            mismatch = (point, want, got)
    return Agreement(trials, agreements, skips, mismatch)


def memo_verify_agreement(oracle, g, trials, rng, height_bound):
    # verify_agreement before the sampler: the memo keyed by the points
    agreements = 0
    skips = 0
    mismatch = None
    seen = {}
    draw = random_element
    coords = range(oracle.arity)
    query, value = oracle.eval, g.eval_or_none
    for _ in range(trials):
        point = tuple([draw(oracle.field, rng, height_bound) for _ in coords])
        pair = seen.get(point)
        if pair is None:
            pair = seen[point] = (query(point), value(point))
        want, got = pair
        if want is None or got is None:
            skips += 1
        elif want == got:
            agreements += 1
        elif mismatch is None:
            mismatch = (point, want, got)
    return Agreement(trials, agreements, skips, mismatch)


def verify_target(field, arity):
    """(1 + 2*x1 + x1*x2 + ... + x(n-1)*xn) / (x1 - x2 - ... - xn): poles on
    a hyperplane."""
    xs = [f"x{k}" for k in range(1, arity + 1)]
    num = "+".join(["1", "2*x1"] + [f"{a}*{b}" for a, b in zip(xs, xs[1:])])
    return to_ratfun(parse(f"({num})/({'-'.join(xs)})", arity), field, arity)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("field, height", [(QQ, 1), (QQ, 10), (QQ, 1000), (FP101, 10),
                                           (FP, 10)],
                         ids=["q-1", "q-10", "q-1000", "fp101", "fp1000003"])
def test_verification_asks_once_per_distinct_point(field, height, arity):
    # A repeated point is counted every time it is drawn but asked only
    # once (at arity 1 with at most 127 values, 200 draws must repeat).
    # The run asks the same points in the same order, and gives the same
    # tally and mismatch, as the memo keyed by the points and as a run
    # without a memo: on the function with its poles, with one more
    # hyperplane of holes, and with its most drawn defined point corrupted.
    f = verify_target(field, arity)
    rng = derive_rng(3, "v")
    drawn = [tuple(random_element(field, rng, height) for _ in range(arity))
             for _ in range(200)]
    defined = [pt for pt in dict.fromkeys(drawn) if f.eval_or_none(pt) is not None]
    bad = max(defined, key=drawn.count)
    hole = drawn[0][0]
    for corrupt, holes in ((None, ()), (None, (hole,)), (bad, ())):
        def fn(pt):
            if pt[0] in holes:
                return None
            v = f.eval_or_none(pt)
            return v + 1 if pt == corrupt else v

        runs = []
        for verify in (verify_agreement, memo_verify_agreement, parent_verify_agreement):
            calls = []
            counted = SliceOracle(arity, field, lambda pt: calls.append(pt) or fn(pt))
            runs.append((verify(counted, f, 200, derive_rng(3, "v"), height), calls))
        (tally, calls), (memo, memo_calls), (want, _) = runs
        assert calls == memo_calls == list(dict.fromkeys(drawn))
        assert tally == memo == want and tally.mismatch == memo.mismatch == want.mismatch
        undefined = [pt for pt in drawn if fn(pt) is None or f.eval_or_none(pt) is None]
        assert tally[2] == len(undefined)
        if corrupt is None:
            assert tally.mismatch is None and tally[1] == 200 - len(undefined)
        else:
            assert tally.mismatch == (bad, f.eval(bad) + 1, f.eval(bad))
            assert tally[1] == 200 - len(undefined) - drawn.count(bad)


def per_point_verify_agreement(oracle, g, trials, rng, height_bound):
    # verify_agreement before the batch: per trial one point of single
    # draws and a memo lookup, and for a new point one query and one
    # candidate value as a field element, compared by ==
    agreements = 0
    skips = 0
    mismatch = None
    seen = {}
    draw = oracle.field._sampler(rng, height_bound)
    arity = oracle.arity
    query, value = oracle.eval, g.eval_or_none
    for _ in range(trials):
        ids, point = zip(*[draw() for _ in range(arity)])
        pair = seen.get(ids)
        if pair is None:
            pair = seen[ids] = (query(point), value(point))
        want, got = pair
        if want is None or got is None:
            skips += 1
        elif want == got:
            agreements += 1
        elif mismatch is None:
            mismatch = (point, want, got)
    return Agreement(trials, agreements, skips, mismatch)


def answer_kinds(field, drawn, bad):
    """name -> how the oracle answers at a point pt where the function's
    value is v: exactly, with holes on the hyperplane of the first point's
    x1, as plain ints where the value is one (over F_p every residue,
    alternately as a negative representative), as an element of a foreign
    field (over Q a float), as an element of an equal field object, and
    with a planted wrong value at `bad`, as an element or an int."""
    p = getattr(field, "p", None)

    def as_int(v):
        if p:
            return v.residue - p if v.residue % 2 else v.residue
        return v.numerator if v.denominator == 1 else v

    if p:
        foreign, twin = FP101 if field is FP else FP, PrimeField(p)
        other = {"foreign": lambda v, pt: foreign.from_int(v.residue),
                 "twin": lambda v, pt: twin.from_int(v.residue)}
    else:
        other = {"float": lambda v, pt: float(v)}
    hole = drawn[0][0] if drawn else None
    return {"exact": lambda v, pt: v,
            "holes": lambda v, pt: None if pt[0] == hole else v,
            "ints": lambda v, pt: as_int(v),
            **other,
            "wrong": lambda v, pt: v + 1 if pt == bad else v,
            "wrong-int": lambda v, pt: as_int(v + 1 if pt == bad else v)}


@pytest.mark.parametrize("trials", [0, 1, 200])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("field, height", [(QQ, 1), (QQ, 10), (QQ, 1000), (FP101, 10),
                                           (FP, 10)],
                         ids=["q-1", "q-10", "q-1000", "fp101", "fp1000003"])
def test_batch_verification_matches_the_per_point_loop(field, height, arity, trials):
    # The batch (one bulk draw, one query per distinct point, N = f*D on
    # integers) against the per-point loop it replaced: the same tally, the
    # same mismatch triple and the same queries in the same order, for
    # every way the oracle answers.  F_101 repeats points at every arity.
    f = verify_target(field, arity)
    rng = derive_rng(4, "v", arity)
    drawn = [tuple(random_element(field, rng, height) for _ in range(arity))
             for _ in range(trials)]
    defined = [pt for pt in dict.fromkeys(drawn) if f.eval_or_none(pt) is not None]
    bad = max(defined, key=drawn.count) if defined else None
    for name, answer in answer_kinds(field, drawn, bad).items():
        def fn(pt):
            v = f.eval_or_none(pt)
            return None if v is None else answer(v, pt)

        runs = []
        for verify in (verify_agreement, per_point_verify_agreement):
            calls = []
            oracle = SliceOracle(arity, field, lambda pt: calls.append(pt) or fn(pt))
            runs.append((verify(oracle, f, trials, derive_rng(4, "v", arity), height), calls))
        (tally, calls), (want, want_calls) = runs
        assert calls == want_calls == list(dict.fromkeys(drawn)), name
        assert tally == want and type(tally) is Agreement, name
        assert tally.mismatch == want.mismatch, name
        if want.mismatch is not None:
            assert [type(x) for x in tally.mismatch] == [type(x) for x in want.mismatch]
        if name == "exact" and defined:
            assert tally.mismatch is None and tally[1] == trials - tally[2] > 0
        if name.startswith("wrong") and bad is not None:
            assert tally.mismatch[0] == bad and tally.mismatch[2] == f.eval(bad)


def test_vacuous_verification_is_a_budget_failure():
    # The leaf's fit sees the oracle only where the fit asks; every
    # verification point is a hole, so not one point is compared.
    f = normalize_ratfun1(Poly1.from_ints(FP, [1]), Poly1.from_ints(FP, [0, 1]))
    cfg = ReconConfig(seed=8)
    asked = {}

    def recording(a):
        asked[a] = f.eval(a) if f.defined_at(a) else None
        return asked[a]

    detect_profile_with_fit(recording, FP, cfg, derive_rng(cfg.seed, "fit"))
    oracle = SliceOracle(1, FP, lambda pt: asked.get(pt[0]))
    with pytest.raises(DomainTooSparse, match=r"recursion path \(\)"):
        reconstruct(oracle, cfg)


@pytest.mark.parametrize("field", [FP, QQ])
def test_verification_builds_the_candidate_evaluator_once(monkeypatch, field):
    # the candidate's program is compiled at its first point, not at every
    # one of the 200
    f = rand_ratfunn(field, random.Random(61), 3, 2)
    f.eval_or_none((1, 2, 3))       # the oracle's own program, built now
    built = []
    compile_ = ratfun._compile
    monkeypatch.setattr(ratfun, "_compile",
                        lambda e, fld, width: built.append((fld, width)) or compile_(e, fld, width))
    g = RatFunN(f.num, f.den)            # a fresh candidate
    tally = verify_agreement(oracle_from_ratfunn(f), g, 200, derive_rng(5, "v"))
    assert tally.mismatch is None and tally[0] == 200 and tally[1] > 150
    assert built == [(field, 3)]


def eval_frames() -> int:
    """The number of SliceOracle.eval frames on the caller's stack."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        n += frame.f_code is SliceOracle.eval.__code__
        frame = frame.f_back
    return n


def test_deep_node_queries_the_user_function_in_one_frame(monkeypatch):
    # a sparse solve at recursion depth 2 reaches the user's function
    # through one SliceOracle.eval frame, whatever the depth, with the
    # anchors above it appended to each point
    f = rand_ratfunn(FP, random.Random(48), 4, 1)
    active = []         # the path of the solve running
    runs = {}           # per solve at depth 2: [(point, frames)]

    def fn(pt):
        if active and len(active[-1]) == 2:
            runs.setdefault(active[-1], []).append((pt, eval_frames()))
        return f.eval_or_none(pt)

    solve = engine._solve_on_support

    def spy(oracle, template, cfg, path):
        active.append(path)
        try:
            return solve(oracle, template, cfg, path)
        finally:
            active.pop()

    monkeypatch.setattr(engine, "_solve_on_support", spy)
    report = reconstruct(SliceOracle(4, FP, fn), ReconConfig(seed=200))
    assert report.result.same_function(f)
    assert runs
    for calls in runs.values():
        assert all(len(pt) == 4 and frames == 1 for pt, frames in calls)


@pytest.mark.parametrize("setting", [{"verify_trials": 0}, {"verify_trials": -1},
                                     {"height_bound": 0}],
                         ids=["0", "-1", "height_bound-0"])
def test_config_rejects_vacuous_verify_trials(setting):
    # a height below 1 leaves Q no points and made F_p runs ignore it
    (name, value), = setting.items()
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
        ReconConfig(**setting)


@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_validation_extra_below_one(value):
    # with no check point, detection would take its first candidate
    # unchecked and a support solve would run no check row; the command
    # line refuses it too
    with pytest.raises(ValueError, match=f"^validation_extra must be >= 1, got {value}$"):
        ReconConfig(validation_extra=value)


@pytest.mark.parametrize("name,value", [("samples_per_class", -1),
                                        ("samples_per_class", -3), ("max_degree", -1)])
def test_config_rejects_negative_sizes(name, value):
    # a negative sample count refused as "0/-3 slices failed" and a negative
    # degree bound as "up to total degree -1"; the command line refuses them
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}$"):
        ReconConfig(**{name: value})
    assert getattr(ReconConfig(**{name: 0}), name) == 0


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_reconstruct_refuses_zero_samples_per_class_above_arity_one(arity):
    # no slice to classify: an empty histogram, which no input may reach;
    # arity 1 classifies no slice and takes 0
    oracle = SliceOracle(arity, FP101, lambda pt: pt[0] * pt[-1] + FP101.one)
    cfg = ReconConfig(samples_per_class=0, seed=3)
    if arity == 1:
        assert format_ratfunn(reconstruct(oracle, cfg).result) == "(x1^2 + 1)/(1)"
        return
    with pytest.raises(ValueError, match="^samples_per_class must be >= 1 for arity > 1$"):
        reconstruct(oracle, cfg)


@pytest.mark.parametrize("name,cap", [("max_degree", MAX_DEGREE_CAP),
                                      ("samples_per_class", SAMPLES_PER_CLASS_CAP),
                                      ("validation_extra", VALIDATION_EXTRA_CAP),
                                      ("verify_trials", VERIFY_TRIALS_CAP)])
def test_config_rejects_budgets_past_their_caps(name, cap):
    ReconConfig(**{name: cap})
    with pytest.raises(ValueError, match=f"^{name} must be <= {cap}, got {cap + 1}$"):
        ReconConfig(**{name: cap + 1})


def test_check_field_at_the_validation_cap_names_the_least_height():
    need = VALIDATION_EXTRA_CAP + 2
    least = 1 + next(h for h, size in enumerate(height_box_sizes(need)) if size >= need)
    ReconConfig(validation_extra=VALIDATION_EXTRA_CAP, height_bound=least).check_field(QQ)
    with pytest.raises(ValueError, match=f"use a height bound of at least {least}$"):
        ReconConfig(validation_extra=VALIDATION_EXTRA_CAP).check_field(QQ)


# P/Q with P(x', b) = x1^2 + 1 and Q(x', b) = (x1^2 + 1)*(x2^2 + 1) on
# x3 = b: coprime, but not on that hyperplane, where the child is
# 1/(x2^2 + 1); over Q no factor vanishes there, so b passes the probe
SHARED_AT_B = "((x3 - ({b}))*x2 + x1^2 + 1)/((x3 - ({b}))*x1 + (x1^2 + 1)*(x2^2 + 1))"


def unlucky_root_anchor(field, cfg):
    """(text, b): SHARED_AT_B at b, the second root anchor of a run with
    `cfg` on SHARED_AT_B at 1.  The probe rarely tells the two texts apart,
    so b is a root anchor of the run on the text too (the test checks)."""
    ast = parse(SHARED_AT_B.format(b=field.one), 3)
    oracle = SliceOracle(3, field, lambda pt: eval_expr(ast, pt, field))
    b = list(islice(choose_anchors(oracle, cfg, derive_rng(cfg.seed, "anchors")), 2))[1]
    return SHARED_AT_B.format(b=b), b


@pytest.mark.parametrize("field", [FP101, QQ], ids=["fp101", "q"])
def test_unlucky_root_anchor_is_replaced(field, monkeypatch):
    # The root's child on x3 = b does not combine with the other two: the
    # root draws a fourth anchor and combines the three other children.
    cfg = ReconConfig(seed=21)
    text, b = unlucky_root_anchor(field, cfg)
    truth = to_ratfun(parse(text, 3), field, 3)
    failed = []
    combine = engine._combine

    def spy(parts, anchors, *args):
        result = combine(parts, anchors, *args)
        if result is None:
            failed.append(b in anchors)
        return result

    monkeypatch.setattr(engine, "_combine", spy)
    report = reconstruct(SliceOracle(3, field, truth.eval_or_none), cfg)
    assert format_ratfunn(report.result) == format_ratfunn(truth)
    assert len(report.anchors[0]) == 4 and b in report.anchors[0][:3]
    assert failed and all(failed)


def test_no_determinant_or_packing_from_reconstruct(monkeypatch):
    # Over one cycle of each recon workload of the benchmark (seed 1, from
    # instance 35, whose root retries in recon_q), no
    # function of `reconstruct` packs, and the engine has no packed
    # determinants to call.
    bench = str(pathlib.Path(__file__).resolve().parents[1] / "bench")
    monkeypatch.syspath_prepend(bench)
    workloads = importlib.import_module("workloads")
    poly = importlib.import_module("ratrecon.poly")
    callers = Counter()

    def spy(fn):
        def called(*args, **kwargs):
            callers[sys._getframe(1).f_globals["__name__"]] += 1
            return fn(*args, **kwargs)
        return called

    monkeypatch.setattr(poly._PackedRing, "pack", spy(poly._PackedRing.pack))
    retries = []
    combine = engine._combine
    monkeypatch.setattr(engine, "_combine",
                        lambda *args: retries.append(1) if (r := combine(*args)) is None else r)
    for name in ("recon_sparse_fp", "recon_dense_fp", "recon_q"):
        for i in range(35, 35 + len(workloads.WORKLOADS[name].cycle)):
            inst = workloads.instance(name, 1, i)
            inst.prepare()
            assert inst.check(inst.solve()), (name, i)
    assert retries
    assert callers["ratrecon.ratfun"] > 0
    assert callers["ratrecon.reconstruct"] == 0
    assert not hasattr(engine, "paired_determinants") and not hasattr(engine, "_PackedRing")
