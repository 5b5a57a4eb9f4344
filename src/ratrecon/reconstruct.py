"""Multivariate reconstruction from a slice-rational black box.

The engine peels the last variable: it samples random slices to find the
generic (degree, order-at-infinity) class, draws anchor values off the
poles that the slices show, recursively reconstructs the function on each
anchor hyperplane, and combines the results by solving for one scale factor
per child: a scalar kernel and coefficient-wise interpolation on integers,
with no symbolic determinant and no gcd (see `_combine`).  An anchor on
whose hyperplane the numerator and denominator share a factor breaks that
system; the node then draws one more anchor from the same stream and
combines the new child with each l of the others, and once more if none
combine (the unlucky-point retry of Kaltofen & Trager, JSC 1990).

A run has two passes (`reconstruct`).  The fast pass checks only the
root's result against the oracle, at `verify_trials` random points; a
wrong result of total degree D agrees at a random point of a sample set S
with probability at most D/|S| (Schwartz 1980; Zippel 1979).  Exact
arithmetic means any disagreement at all is a failure, and so is a check
in which no point was defined on both sides.  Below the root each node
returns its result unchecked.  If the fast pass fails, the strict pass
builds the tree again with every node checked at its own path, so a
failure there names the deepest node that failed, and a node or sibling
can repair a failure as described below.  A failure of the fast pass
before any node skipped its check is final: the strict pass would repeat
it step for step.

A slice's (n, m) can only fall below its node's generic class, and only on
a Zariski-closed set, so the generic class is the componentwise maximum
over the slices.  `classify_slices` stops once a few slices in a row leave
that maximum unchanged, unless a slice failed.  Every node that recurses
classifies the slices of its own restriction this way.  A class that is
too low shows at the node itself: its combine fails (`ZeroDenominator`) or
its check does.  In the strict pass such a node, unless it drew every
slice, then classifies all `samples_per_class` slices of its stream and
repeats itself with their maximum; if that is the class that failed, the
original error stands.

Only the first child of a node recurses.  Each later child of arity 2 or
more is the same function on another anchor hyperplane, and off a
Zariski-closed set of anchors it has the support of the first child's
result, so it is first solved on that support (`_solve_on_support`, Zippel's
sparse interpolation carried over to rational functions as in FireFly,
Klappert & Lange, CPC 2020).  A sibling whose solve fails, or in the strict
pass whose check fails, is reconstructed in full, the node it would have
been without the solve.  The tree of prod(l_k + 1) nodes becomes a chain:
the first child at each level recurses, its siblings are solved, and only
the fallbacks recurse further.

Each node returns a `NodeRecord`: its result, its verification tally
((0, 0, 0) where its check was skipped), its own slice classes, the
anchors of its subtree per level, merged from the children that recursed
in child order, and its subtree's node counts.  Nodes share no state but
the fast pass's list of skipped checks.

A node's oracle holds the user's function and the anchors fixed above it,
so a query at any depth is one `SliceOracle.eval` call into the user's
function.  A check draws all of a node's points at once, asks the oracle
once per distinct point, and checks N(x) = f(x) D(x) on integers: the
candidate's (N(x), D(x)) come from one run of the straight-line program it
compiles at its first use (`RatFunN.eval_pairs`), with the compiler that
runs an expression oracle, looping over the points.  An anchor costs no
query (`choose_anchors`).  A child that refuses for lack of defined points
lies on a hole of the black box, and the node replaces its anchor by the
next draw, at most `MAX_HOLE_ANCHORS` times (Kaltofen & Trager's retry).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, zip_longest
from operator import mul

from .errors import (
    AnchorSearchFailed,
    EmptyHistogram,
    RatreconError,
    TooManyFailures,
    VerificationFailed,
)
from .errors import BudgetExhausted, DomainTooSparse, ZeroDenominator
from .fields import Field, FpElement, _draw_point, derive_rng, iter_height_box_sizes
from .interp import DegreeProfile, SamplingBudget, detect_profile_with_fit
from .matrix import bordered_dets
from .poly import PolyN, field_prime, int_pair, int_powers, mul_ints
from .ratfun import RatFunN, format_ratfunn, normalize_ratfunn, ratfunn_from_ints
from .records import Record

MAX_ANCHOR_ATTEMPTS = 100
MAX_CLASSIFY_FAILURE_RATE = 0.20
# A node's classification stops once this many detected slices in a row
# leave the maximal class unchanged.
STABLE_SLICES = 2
# The recursion tree has prod(l_k + 1) leaves over its levels k; a node
# whose class and its ancestors' show a larger one raises BudgetExhausted.
MAX_LEAVES = 1024
# A node whose l+1 children do not combine draws up to this many more
# anchors, one at a time (the unlucky-point retry, see `_reconstruct_level`).
MAX_UNLUCKY_ANCHORS = 2
# A node replaces at most this many anchors whose child refused for lack of
# defined points (the retry on holes, see `_reconstruct_level`).
MAX_HOLE_ANCHORS = 2
# A sparse solve draws at most this many points per row it needs, the
# template's unknowns plus the check rows, and falls back when they run out.
SPARSE_DRAWS_PER_ROW = 2


class SliceOracle(Record):
    """Partial black-box function on field^arity.  Undefined inputs are
    reported as None, never raised.  The engine calls it serially.

    `_suffix` is internal: the anchors that fix the trailing coordinates of
    `fn`'s points, so a restriction to an anchor hyperplane (`_restrict`)
    calls the user's function directly, however deep the recursion.  So is
    `_skipped`: None when every node checks its result, else the list to
    which each node below the root appends its path instead of checking
    (the fast pass of `reconstruct`)."""
    __slots__ = ("arity", "field", "fn", "_suffix", "_skipped")

    def __init__(self, arity: int, field: Field,
                 fn: "Callable[[tuple], object | None]", _suffix: tuple = (),
                 _skipped: list | None = None):
        self.arity = arity
        self.field = field
        self.fn = fn
        self._suffix = _suffix
        self._skipped = _skipped

    def eval(self, point: tuple):
        if len(point) != self.arity:
            raise ValueError(f"point arity {len(point)} != oracle arity {self.arity}")
        return self.fn(tuple(point) + self._suffix)

    def _restrict(self, b) -> "SliceOracle":
        """The oracle on the hyperplane where the last coordinate is `b`."""
        return SliceOracle(self.arity - 1, self.field, self.fn, (b,) + self._suffix,
                           self._skipped)


def slice_oracle(oracle: SliceOracle, axis: int, fixed: tuple):
    """Univariate restriction: a -> oracle(..., a, ...) with `a` at `axis`."""
    if not 0 <= axis < oracle.arity:
        raise ValueError("axis out of range")
    if len(fixed) != oracle.arity - 1:
        raise ValueError("fixed tuple must have arity-1 coordinates")
    pre, post = tuple(fixed[:axis]), tuple(fixed[axis:]) + oracle._suffix
    query = oracle.fn

    def fn(a):
        return query(pre + (a,) + post)

    return fn


# Upper bounds on the budget fields of ReconConfig, far above the defaults
# and every value the tests use; a run's cost grows linearly in each (see
# docs/formats.md).
SAMPLES_PER_CLASS_CAP = 1000
VALIDATION_EXTRA_CAP = 1000
VERIFY_TRIALS_CAP = 10_000


class ReconConfig(Record):
    __slots__ = ("samples_per_class", "max_degree", "validation_extra",
                 "verify_trials", "height_bound", "seed")

    def __init__(self, samples_per_class: int = 20, max_degree: int = 8,
                 validation_extra: int = 4, verify_trials: int = 200,
                 height_bound: int = 10, seed: int = 0):
        self.samples_per_class = samples_per_class
        self.max_degree = max_degree
        self.validation_extra = validation_extra
        self.verify_trials = verify_trials
        self.height_bound = height_bound
        self.seed = seed
        for name, low in (("samples_per_class", 0), ("max_degree", 0),
                          ("validation_extra", 1), ("verify_trials", 1),
                          ("height_bound", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name, cap in (("samples_per_class", SAMPLES_PER_CLASS_CAP),
                          ("validation_extra", VALIDATION_EXTRA_CAP),
                          ("verify_trials", VERIFY_TRIALS_CAP)):
            if getattr(self, name) > cap:
                raise ValueError(
                    f"{name} must be <= {cap}, got {getattr(self, name)}")

    def check_field(self, field: Field) -> None:
        """Refuse a Q height box with fewer distinct values than a constant's
        detection needs: a pool of 2 and `validation_extra` fresh points."""
        need = self.validation_extra + 2
        h = self.height_bound
        if field_prime(field) is not None:
            return
        # count the boxes up to the least sufficient height, keeping only
        # the size at h
        for least, size in enumerate(iter_height_box_sizes(), 1):
            if least == h:
                at_h = size
            if size >= need:
                break
        if h >= least:
            return
        raise ValueError(
            f"height bound {h} gives {at_h} values over Q, fewer "
            f"than the {need} that even a constant's detection needs at "
            f"validation_extra {self.validation_extra}; use a height bound "
            f"of at least {least}")

    def budget(self) -> SamplingBudget:
        return SamplingBudget(max_degree=self.max_degree,
                              validation_extra=self.validation_extra,
                              height_bound=self.height_bound)

    def to_json(self) -> dict:
        return {
            "samples_per_class": self.samples_per_class,
            "max_degree": self.max_degree,
            "validation_extra": self.validation_extra,
            "verify_trials": self.verify_trials,
            "height_bound": self.height_bound,
            "seed": self.seed,
        }


class ClassifyResult(Record):
    __slots__ = ("histogram", "failures", "total", "de", "redrawn", "dens")

    def __init__(self, histogram: Counter, failures: int, total: int, de: tuple,
                 redrawn: int, dens: list):
        self.histogram = histogram
        self.failures = failures
        self.total = total          # the slices drawn: histogram plus failures
        self.de = de                # the node's (d, e): see `maximal_class`
        self.redrawn = redrawn      # draws of a dead slice that were redrawn
        self.dens = dens            # the detected slices' fitted denominators


def maximal_class(hist) -> tuple:
    """The (d, e) of the componentwise maximum of the slices' (n, m)."""
    if not hist:
        raise EmptyHistogram("no classified slices")
    n = max(DegreeProfile.from_de(*de).n for de in hist)
    m = max(DegreeProfile.from_de(*de).m for de in hist)
    return max(n, m), n - m


def classify_slices(oracle: SliceOracle, axis: int, cfg: ReconConfig, rng,
                    full: bool = False) -> ClassifyResult:
    """Profile random slices along `axis`, at most `samples_per_class`.  A
    slice cannot exceed its node's generic class, so the node's class is
    the componentwise maximum of the slices' (n, m) (`maximal_class`), and
    the run stops once `STABLE_SLICES` detected slices in a row have left
    that maximum unchanged.  With `full`, or once a slice has failed, it
    draws all `samples_per_class`, so a refusal stays what a full
    classification would give.

    A dead slice, one whose detection finds too few defined points
    (`DomainTooSparse`), lies in a hole of the domain: it is replaced by a
    slice with a fresh fixed tuple from the same stream, and a tuple found
    dead is never queried again.  At most `samples_per_class` redraws are
    made, and drawing a known-dead tuple spends one; after that a dead
    slice is a failure.  Every other failed detection is a failure at once.
    More than 20% of `samples_per_class` failures refuse."""
    if oracle.arity < 2:
        raise ValueError("classification needs arity >= 2")
    hist: Counter = Counter()
    dens = []
    failures = 0
    dead: set = set()           # the ids of the dead fixed tuples
    redraws = cfg.samples_per_class
    budget = cfg.budget()
    draw = oracle.field._sampler(rng, cfg.height_bound)
    top = None                  # the maximal class so far
    unchanged = 0               # detected slices in a row that left it so
    i = 0
    while i < cfg.samples_per_class and (full or failures
                                         or unchanged < STABLE_SLICES):
        while True:
            ids, fixed = _draw_point(draw, oracle.arity - 1)
            sub_rng = derive_rng(rng.getrandbits(63), "classify-slice", axis, i)
            if ids not in dead:
                try:
                    prof, fit = detect_profile_with_fit(
                        slice_oracle(oracle, axis, fixed), oracle.field,
                        budget, sub_rng)
                except BudgetExhausted:
                    failures += 1
                    break
                except DomainTooSparse:
                    dead.add(ids)
                else:
                    hist[(prof.d, prof.e)] += 1
                    dens.append(fit.den)
                    grown = maximal_class(hist)
                    unchanged = unchanged + 1 if grown == top else 0
                    top = grown
                    break
            if not redraws:
                failures += 1
                break
            redraws -= 1
        i += 1
    if failures > MAX_CLASSIFY_FAILURE_RATE * cfg.samples_per_class:
        raise TooManyFailures(
            f"{failures}/{cfg.samples_per_class} slices failed profile detection; "
            "oracle is likely not slice-rational within the budget")
    return ClassifyResult(hist, failures, i, maximal_class(hist),
                          cfg.samples_per_class - redraws, dens)


def choose_anchors(oracle: SliceOracle, axis: int, cfg: ReconConfig, rng, dens=()):
    """Distinct values along `axis`, each fresh draw of one stream in the
    order drawn, with no oracle query.  A draw b is skipped when each of
    `dens`, the fitted denominators of the node's slices along `axis`,
    vanishes at b: then (x_axis - b) divides the node's denominator, and
    b's hyperplane is a pole.  A generator: a node takes the first l+1, and
    more only to replace unlucky anchors or holes (see
    `_reconstruct_level`)."""
    taken: set = set()          # the anchors' ids
    zero = oracle.field.zero
    draw = oracle.field._sampler(rng, cfg.height_bound)
    while True:
        for _ in range(MAX_ANCHOR_ATTEMPTS):
            key, b = draw()
            if key in taken or dens and all(den.eval(b) == zero for den in dens):
                continue
            taken.add(key)
            yield b
            break
        else:
            raise AnchorSearchFailed(
                f"no usable anchor after {MAX_ANCHOR_ATTEMPTS} attempts "
                f"(found {len(taken)})")


class Agreement(tuple):
    """(trials, agreements, undefined_skips) of a verification run; the
    first disagreement, as (point, oracle value, result value), is in
    `mismatch`, which is None when every defined point agreed."""

    def __new__(cls, trials: int, agreements: int, skips: int, mismatch=None):
        tally = super().__new__(cls, (trials, agreements, skips))
        tally.mismatch = mismatch
        return tally

    def __reduce__(self):
        # the tuple's own reduce passes only the tally, and drops mismatch
        return type(self), (*self, self.mismatch)


def verify_agreement(oracle: SliceOracle, g: RatFunN, trials: int, rng,
                     height_bound: int = 10) -> Agreement:
    """Tallies over `trials` random points of the oracle's arity, at least 1
    as at every node; points where either side is undefined are skipped,
    the rest compared exactly.  The points are those of
    `fields.random_element` on `rng`, drawn in one call of the field's
    sampler.  A point drawn again is counted again, from the values of its
    first draw: the oracle is a function, so each distinct point is queried
    once, in the order of first draws, and the candidate is evaluated once
    per distinct point, in one run of its program.  Points are keyed by the
    tuples of the coordinates' sampler ids, which are equal exactly when
    the points are.

    The candidate's value at x is the integer pair (N, D) of
    `RatFunN.eval_pairs`, and an oracle value w agrees when N = w*D: mod p
    over F_p, and over Q as N*den(w) = num(w)*D.  A value that is neither
    an int nor a Fraction over Q, nor an element of the oracle's field over
    F_p, is compared with the candidate's value by ==."""
    field, arity = oracle.field, oracle.arity
    hits = field._sampler(rng, height_bound)(arity * trials)
    if not hits:
        return Agreement(trials, 0, 0)
    ids, coords = zip(*hits)
    keys = list(zip(*[iter(ids)] * arity))
    counts = Counter(keys)                  # in the order of first draws
    points = dict(zip(keys, zip(*[iter(coords)] * arity)))
    wants = [oracle.eval(point) for point in points.values()]
    pairs = g.eval_pairs(points.values())
    p = field_prime(field)
    agreements = skips = 0
    mismatch = None
    for k, point, want, pair in zip(counts.values(), points.values(), wants, pairs):
        if want is None or pair is None:
            skips += k
            continue
        n, d = pair
        t = type(want)
        if t is int:
            agree = n == want * d if p is None else (n - want * d) % p == 0
        elif p is None and t is Fraction:
            agree = n * want.denominator == want.numerator * d
        elif t is FpElement and want.field is field:
            agree = (n - want.residue * d) % p == 0
        else:
            agree = want == g.eval_or_none(point)
        if agree:
            agreements += k
        elif mismatch is None:
            mismatch = (point, want, g.eval_or_none(point))
    return Agreement(trials, agreements, skips, mismatch)


class ReconReport(Record):
    __slots__ = ("result", "arity", "field", "class_histogram", "failures",
                 "anchors", "verification", "config", "nodes")

    def __init__(self, result: RatFunN, arity: int, field: Field,
                 class_histogram: dict, failures: int, anchors: list,
                 verification: tuple, config: ReconConfig, nodes: Counter):
        self.result = result
        self.arity = arity
        self.field = field
        self.class_histogram = class_histogram
        self.failures = failures
        self.anchors = anchors            # per recursion level, in processing order
        self.verification = verification  # (trials, agreements, undefined_skips)
        self.config = config
        self.nodes = nodes                # see NodeRecord

    def to_json(self) -> dict:
        fmt = self.field.format
        return {
            "result": format_ratfunn(self.result),
            "coprime_certified": True,      # _combine's result is coprime
            "arity": self.arity,
            "field": self.field.descriptor(),
            "class_histogram": {f"{d},{e}": c for (d, e), c in
                                sorted(self.class_histogram.items())},
            "classify_failures": self.failures,
            "anchors": [[fmt(b) for b in level] for level in self.anchors],
            "nodes": {k: self.nodes[k] for k in NODE_KINDS},
            "verification": {
                "trials": self.verification[0],
                "agreements": self.verification[1],
                "undefined_skips": self.verification[2],
            },
            "config": self.config.to_json(),
        }


# The node counts of a subtree: "recursed" nodes ran `_reconstruct_level`
# (inner nodes and leaf fits), "sparse" ones were solved on their first
# sibling's support, so the two sum to the nodes of the tree; "fallbacks"
# counts the recursed siblings whose sparse solve or its check failed.
NODE_KINDS = ("recursed", "sparse", "fallbacks")


class NodeRecord(Record):
    """What one recursion node hands back to its parent."""
    __slots__ = ("result", "anchors", "verification", "histogram", "failures",
                 "nodes")

    def __init__(self, result: RatFunN, anchors: list, verification: Agreement,
                 histogram: Counter, failures: int, nodes: Counter):
        self.result = result
        self.anchors = anchors  # anchors[k]: the subtree's anchors k levels down
        self.verification = verification
        self.histogram = histogram        # the node's own slice classes
        self.failures = failures
        self.nodes = nodes                # the subtree's counts of NODE_KINDS


def reconstruct(oracle: SliceOracle, cfg: ReconConfig) -> ReconReport:
    """Full reconstruction with verification; see module docstring.  The
    report carries the root node's classes and verification tallies.

    The fast pass checks only the root.  If it fails after a node below
    the root skipped its check, the strict pass runs the tree again with
    every node checked; a failure before any skipped check is the strict
    pass's own, which would repeat it step for step.  Above arity 1 a
    samples_per_class of 0 is refused (ValueError): no slice is classified."""
    if oracle.arity > 1 and cfg.samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1 for arity > 1")
    cfg.check_field(oracle.field)
    skipped: list = []
    fast = SliceOracle(oracle.arity, oracle.field, oracle.fn, oracle._suffix, skipped)
    try:
        root = _reconstruct_level(fast, cfg, (), 1)
    except RatreconError:
        if not skipped:
            raise
        root = None     # the strict pass runs outside the handler: its error is its own
    if root is None:
        root = _reconstruct_level(oracle, cfg, (), 1)
    return ReconReport(root.result, oracle.arity, oracle.field,
                       dict(root.histogram), root.failures, root.anchors,
                       root.verification, cfg, root.nodes)


def _reconstruct_level(oracle: SliceOracle, cfg: ReconConfig, path: tuple,
                       leaves: int) -> NodeRecord:
    """The node at `path`.  `leaves` is the product of l + 1 over the
    classes of its ancestors."""
    field = oracle.field
    if oracle.arity == 1:
        rng = derive_rng(cfg.seed, "fit", *path)
        prof, fit = detect_profile_with_fit(
            slice_oracle(oracle, 0, ()), field, cfg.budget(), rng)
        result = fit.to_ratfunn(1)
        return NodeRecord(result, [], _verify_node(oracle, result, cfg, path),
                          Counter({(prof.d, prof.e): 1}), 0, Counter(recursed=1))

    axis = oracle.arity - 1

    def classify(full=False):
        return classify_slices(oracle, axis, cfg,
                               derive_rng(cfg.seed, "classify", *path), full)

    cls = classify()
    while True:
        profile = DegreeProfile.from_de(*cls.de)
        tree = leaves * (profile.l + 1)
        if tree > MAX_LEAVES:
            raise BudgetExhausted(
                f"the recursion tree would have at least {tree} leaves, "
                f"more than {MAX_LEAVES}")
        stream = choose_anchors(oracle, axis, cfg, derive_rng(cfg.seed, "anchors", *path),
                                cls.dens)
        anchors = list(islice(stream, profile.l + 1))
        holes = MAX_HOLE_ANCHORS

        def child(i, first=None):
            # the child on anchors[i], a sibling of `first` if given; one
            # that refuses for lack of defined points lies on a hole, and
            # the next anchor of the stream replaces its own
            nonlocal holes
            while True:
                sub, at = oracle._restrict(anchors[i]), path + (i,)
                try:
                    if first is None:
                        return _reconstruct_level(sub, cfg, at, tree)
                    return _sibling(sub, first.result, cfg, at, tree)
                except (DomainTooSparse, TooManyFailures, AnchorSearchFailed):
                    if not holes:
                        raise
                    holes -= 1
                    anchors[i] = next(stream)

        first_child = child(0)
        children = [first_child] + [child(i, first_child) for i in range(1, len(anchors))]
        result = _combine([c.result for c in children], anchors, profile,
                          field, oracle.arity)
        while result is None and len(anchors) <= profile.l + MAX_UNLUCKY_ANCHORS:
            # an unlucky anchor: draw one more, and combine its child with
            # each l of the others
            new = len(anchors)
            anchors.append(next(stream))
            children.append(child(new, first_child))
            for out in combinations(range(new), new - profile.l):
                keep = [j for j in range(new + 1) if j not in out]
                result = _combine([children[j].result for j in keep],
                                  [anchors[j] for j in keep], profile, field, oracle.arity)
                if result is not None:
                    break
        try:
            if result is None:
                raise ZeroDenominator(f"no {profile.l + 1} of the {len(anchors)} "
                                      f"children at recursion path {path} combine")
            verification = _verify_node(oracle, result, cfg, path)
        except (ZeroDenominator, VerificationFailed) as failure:
            if cls.total == cfg.samples_per_class or oracle._skipped is not None:
                raise
            # the class may be too low on this node's hyperplane: repeat
            # with all the slices of its stream, unless they agree.  If they
            # refuse, the refusal stands when the node's own slices met a
            # hole already; otherwise the holes lie only beyond the slices
            # drawn, as in a replayed record, and the original error stands
            try:
                repeat = classify(full=True)
            except TooManyFailures:
                if cls.redrawn:
                    raise
                raise failure from None
            if repeat.de == cls.de:
                raise
            cls = repeat
            continue
        below = [sum(levels, []) for levels in
                 zip_longest(*(c.anchors for c in children), fillvalue=[])]
        return NodeRecord(result, [anchors] + below, verification,
                          cls.histogram, cls.failures,
                          sum((c.nodes for c in children), Counter(recursed=1)))


def _sibling(oracle: SliceOracle, template: RatFunN, cfg: ReconConfig,
             path: tuple, leaves: int) -> NodeRecord:
    """A later child at `path`: solved on the support of its first sibling's
    result `template` and verified as every node is, or, when either fails,
    the node `_reconstruct_level` builds.  A leaf is always fitted."""
    if oracle.arity == 1:
        return _reconstruct_level(oracle, cfg, path, leaves)
    result = _solve_on_support(oracle, template, cfg, path)
    if result is not None:
        try:
            verification = _verify_node(oracle, result, cfg, path)
        except (VerificationFailed, DomainTooSparse):
            pass
        else:
            return NodeRecord(result, [], verification, Counter(), 0,
                              Counter(sparse=1))
    node = _reconstruct_level(oracle, cfg, path, leaves)
    node.nodes["fallbacks"] += 1
    return node


def _solve_on_support(oracle: SliceOracle, template: RatFunN, cfg: ReconConfig,
                      path: tuple) -> RatFunN | None:
    """The canonical N/D whose parts have the supports of `template`'s, or
    None.  The unknowns are the T + 1 coefficients of the two parts; each
    point x where the oracle is defined gives the row N(x) - f(x) D(x) = 0.
    The points come from the `sparse` stream of `path`, at most
    `SPARSE_DRAWS_PER_ROW` per row needed.  `matrix.bordered_dets` with
    unit borders takes the kernel of the first T independent rows, and
    `validation_extra` further rows check it.  The rows are integers:
    over F_p eliminated mod p, so a row dependent mod p is dropped like any
    dependent row; over Q each point's row times its denominators, f's and
    the coordinates' to the largest power of the template.

    None when the draws run out, the kernel found is zero (the system is
    singular), its denominator is zero, or a check row fails: the sibling
    then recurses in full."""
    field = oracle.field
    p = field_prime(field)
    columns = [e for part in (template.num, template.den) for _, e in part.int_form()[1]]
    split = len(template.num.terms)     # the numerator's columns come first
    tops = [max(col) for col in zip(*columns)]
    draw = field._sampler(derive_rng(cfg.seed, "sparse", *path), cfg.height_bound)

    def rows():
        for _ in range(SPARSE_DRAWS_PER_ROW * (len(columns) - 1 + cfg.validation_extra)):
            _, point = _draw_point(draw, oracle.arity)
            value = oracle.eval(point)
            if value is None:
                continue
            a, b = int_pair(value, p)
            powers = [int_powers(c, top, p) for c, top in zip(point, tops)]
            monomials = [math.prod(pw[k] for pw, k in zip(powers, e)) for e in columns]
            yield [b * x for x in monomials[:split]] + [-a * x for x in monomials[split:]]

    stream = rows()
    units = [[int(i == j) for i in range(len(columns))] for j in range(len(columns))]
    coeffs = bordered_dets(stream, units, p)
    if not any(coeffs[split:]):
        return None
    for _ in range(cfg.validation_extra):
        row = next(stream, None)
        if row is None:
            return None
        residual = sum(map(mul, row, coeffs))
        if residual % p if p is not None else residual:
            return None
    num, den = (PolyN(field, oracle.arity, {e: field.from_int(c) for e, c in zip(es, cs)})
                for es, cs in ((columns[:split], coeffs[:split]),
                               (columns[split:], coeffs[split:])))
    return normalize_ratfunn(num, den)


def _combine(parts, anchors, profile: DegreeProfile, field: Field,
             nvars: int) -> RatFunN | None:
    """Assemble the node's function from its per-anchor reconstructions by
    the scaling-factor system of de Kleine, Monagan & Wittkopf (ISSAC 2005).

    Write the node's function as P/Q, coprime, of degrees n and m in the
    peeled variable y.  Where P(x', b_i) and Q(x', b_i) are coprime, the
    canonical child N_i/D_i at anchor b_i is that pair divided by a nonzero
    constant, so the unknowns are l+1 scalars: with
    L_i(y) = prod_{j != i} (y - b_j), P is sum_i s_i N_i L_i and Q is
    sum_i s_i D_i L_i for some s.  The system asks of s that every
    x'-coefficient of these sums has degree <= n in y, resp. <= m:
    sum_i s_i b_i^k N_{i,alpha} = 0 for k < m and each x'-monomial alpha of
    the numerators, and the same over D_{i,alpha} for k < n.  (With
    s_i = t_i w_i, w_i = 1/prod_{j != i}(b_i - b_j), t_i is the constant
    of child i.)  Its kernel is taken with `matrix.bordered_dets` and unit
    borders, the sums are interpolated and scaled by `ratfunn_from_ints`,
    as in `normalize_ratfunn` but with no gcd.  All of it runs on integers:
    over F_p the kernel is taken mod p; over Q each child over the lcm of
    its two parts' denominators and each anchor u/v with powers
    u^k v^(max(n,m)-1-k), which scales each column by a constant.

    No gcd is needed: the canonical children are coprime, and then a
    one-dimensional kernel with every s_i nonzero gives a coprime result.
    Let g divide both sums.  At y = b_i the sums are s_i L_i(b_i) (N_i, D_i),
    so g(x', b_i) divides a coprime pair times a nonzero constant: it is a
    nonzero constant c_i.  The part of g that depends on x' has degree
    <= l in y and vanishes at l+1 anchors, so g lies in K[y].  With the
    sums divided by g and multiplied by any h in K[y] of degree <= deg g,
    both sums keep their degree bounds and take the values h(b_i)/c_i
    times those at s, so s_i h(b_i)/c_i solves the system too; h = 1 and
    h = y give two independent solutions unless deg g = 0.

    At an unlucky anchor, where P(x', b_i) and Q(x', b_i) share a factor,
    the child is that pair divided by the factor, so no solution has
    s_i != 0.  Such a kernel, a kernel of another dimension (or a class
    that does not hold on the node), a sum above its degree and a zero
    denominator (duplicate anchors) give None, and the node draws one more
    anchor (`_reconstruct_level`)."""
    n, m, l = profile.n, profile.m, profile.l
    p = field_prime(field)
    ratios = [int_pair(b, p) for b in anchors]
    nums, dens = [], []
    for h in parts:
        lden, dterms, _ = h.den.int_form()
        lnum, nterms, _ = h.num.int_form()
        lcm = math.lcm(lden, lnum)
        nums.append({e: c * (lcm // lnum) for c, e in nterms})
        dens.append({e: c * (lcm // lden) for c, e in dterms})
    top = max(n, m)
    bpowers = [int_powers(b, top - 1, p) for b in anchors]     # b^k v^(top-1)

    def equations():
        for fs, below in ((nums, m), (dens, n)):
            for alpha in dict.fromkeys(e for f in fs for e in f):
                cs = [f.get(alpha, 0) for f in fs]
                for k in range(below):
                    yield [bp[k] * c for bp, c in zip(bpowers, cs)]

    scales = bordered_dets(equations(), [[int(i == j) for i in range(l + 1)]
                                         for j in range(l + 1)], p)
    if 0 in scales:
        return None
    # basis_i times child i's integer parts is s_i L_i (N_i, D_i) up to one
    # common factor; over Q, v_j y - u_j stands for y - b_j
    basis = []
    for i, s in enumerate(scales):
        f = [s * ratios[i][1] ** top]
        for j, (u, v) in enumerate(ratios):
            if j != i:
                f = mul_ints(f, [-u, v], p)
        basis.append(f)
    num, den = _interpolate(nums, basis, n, p), _interpolate(dens, basis, m, p)
    if num is None or not den:
        return None
    return ratfunn_from_ints(field, nvars, num, den)


def _interpolate(fs, basis, bound: int, p):
    """{alpha + (k,): c} for sum_i f_i basis_i, or None if a coefficient has
    a term above y^bound."""
    out = {}
    for alpha in dict.fromkeys(e for f in fs for e in f):
        acc = [0] * len(basis[0])
        for f, b in zip(fs, basis):
            c = f.get(alpha)
            if c:
                for k, x in enumerate(b):
                    acc[k] += c * x
        if p is not None:
            acc = [c % p for c in acc]
        if any(acc[bound + 1:]):
            return None
        out.update(((*alpha, k), c) for k, c in enumerate(acc) if c)
    return out


def _verify_node(oracle: SliceOracle, result: RatFunN, cfg: ReconConfig,
                 path: tuple) -> Agreement:
    if path and oracle._skipped is not None:
        oracle._skipped.append(path)
        return Agreement(0, 0, 0)
    rng = derive_rng(cfg.seed, "verify", *path)
    tally = verify_agreement(oracle, result, cfg.verify_trials, rng,
                             cfg.height_bound)
    if tally.mismatch is not None:
        raise VerificationFailed(*tally.mismatch, path=path)
    trials, agreements, skips = tally
    if trials and not agreements:
        raise DomainTooSparse(
            f"verification at recursion path {path} found no point where "
            f"both the oracle and the result are defined ({skips}/{trials} "
            "undefined)")
    return tally
