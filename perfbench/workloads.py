"""The benchmark's workloads: seeded inputs, one task at a time, checks.

Each workload builds its inputs from the seed, runs task i with
`run(inp, tr)` (the only part that is timed), and checks the result
with `check(inp, res)` against the reference code in reference.py.  In
a traced run, `layers(inp, res, tr, problems)` then calls the public
functions of the individual modules directly on the same inputs, so the
per-layer figures come from the workload's own data.

A check returns the task's counters and a list of problems.  A problem
is a wrong answer and fails the run; refusals (CapExceeded) and
inconclusive verdicts are only counted.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

import numpy as np

from ohb import (
    BlockVector,
    CapExceeded,
    Code,
    Field,
    NotIsometryError,
    SpaceConfig,
    StructureError,
    all_symmetries,
    apply_to_code,
    as_rank_table,
    code_invariants,
    compose_chain,
    compose_symmetry,
    decompose_chain,
    decompose_full,
    distance,
    enumerate_automorphisms,
    enumerate_isometries,
    equivalent,
    format_vector,
    full_order,
    invert_chain,
    invert_symmetry,
    make_translation,
    parse_vector,
    random_chain,
    random_symmetry,
    weight,
    weight_array,
)
from ohb.space import dist_ranks, distance_matrix_array, sub_ranks

from reference import (
    PINNED_ISOMETRY_COUNTS,
    Geometry,
    automorphism_order,
    field_tables,
    isometry_order,
)

COUNTERS = ("isometries", "automorphisms", "nodes", "inconclusive", "unwitnessed", "refused", "raised")


def field_of(q: int) -> tuple:
    """(p, e) of GF(q) for the field sizes used here."""
    return {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]


def make_space(q: int, pi):
    p, e = field_of(q)
    pi = [list(row) for row in pi]
    return SpaceConfig(Field(p, e), len(pi), len(pi[0]), pi), Geometry(p, e, pi)


def new_counters():
    return dict.fromkeys(COUNTERS, 0)


def check_rejection(geo, table, exc, counters, problems, what):
    """A table that is not an isometry must be refused; a witness pair must
    really break distance."""
    if not isinstance(exc, Exception):
        problems.append(f"{what}: a non-isometry was accepted")
    elif isinstance(exc, NotIsometryError):
        u, v = exc.witness
        if not geo.breaks_distance(table, u, v):
            problems.append(f"{what}: witness {exc.witness} does not break distance")
    else:
        counters["unwitnessed"] += 1


def _decompose(cfg, table):
    """decompose_full's symmetry, or the refusal it raised."""
    try:
        return decompose_full(cfg, table)
    except (NotIsometryError, StructureError) as exc:
        return exc


def reject(tr, cfg, table):
    """decompose_full on a table that must be refused; returns the refusal."""
    return tr.call("symmetry.reject", _decompose, cfg, table,
                   tally=lambda e: {"unwitnessed": int(isinstance(e, StructureError))})


def count_isometries(tr, cfg):
    return tr.call("oracle.count", enumerate_isometries, cfg,
                   tally=lambda r: {"isometries": r.isometry_count}).isometry_count


def count_automorphisms(tr, cfg):
    return tr.call("automorphisms.enumerate", enumerate_automorphisms, cfg,
                   tally=lambda r: {"found": r[0]})[0]


def search_equivalence(tr, c1, c2):
    return tr.call("codes.equivalent", equivalent, c1, c2,
                   tally=lambda r: {"nodes": r.nodes, "inconclusive": int(r.verdict == "inconclusive")})


def swap_points(geo, rng):
    """Two random points u, v and a third point w with d(u, w) != d(v, w).
    Swapping the images of u and v then breaks the distance of (u, w), so
    a table with that swap is never an isometry."""
    every = np.arange(geo.size, dtype=np.int64)
    while True:
        u, v = rng.sample(range(geo.size), 2)
        differ = np.nonzero(geo.distance(u, every) != geo.distance(v, every))[0]
        differ = differ[(differ != u) & (differ != v)]
        if len(differ):
            return u, v, int(differ[rng.randrange(len(differ))])


def swapped(table, points):
    u, v = points[:2]
    bad = np.array(table, dtype=np.int64)
    bad[[u, v]] = bad[[v, u]]
    return bad


def proves_swap(geo, bad, points):
    if not geo.breaks_distance(bad, points[0], points[2]):
        raise RuntimeError("benchmark bug: the swapped table is an isometry")


def fields_layer(tr, p, e, problems, repeat=64):
    """Field construction and add/sub/mul/inv over all element pairs."""
    f = tr.call("fields.init", Field, p, e)
    add, mul = field_tables(p, e, f.modulus)
    q = f.q
    pairs = [(a, b) for a in range(q) for b in range(q)] * max(1, repeat // q)
    nonzero = [(a, b) for a, b in pairs if b]
    sums = tr.call("fields.op", lambda: [f.add(a, b) for a, b in pairs], items=len(pairs))
    diffs = tr.call("fields.op", lambda: [f.sub(a, b) for a, b in pairs], items=len(pairs))
    prods = tr.call("fields.op", lambda: [f.mul(a, b) for a, b in pairs], items=len(pairs))
    invs = tr.call("fields.op", lambda: [f.inv(b) for _, b in nonzero], items=len(nonzero))
    for (a, b), s, d, m in zip(pairs, sums, diffs, prods):
        if s != add[a][b] or add[d][b] != a or m != mul[a][b]:
            problems.append(f"GF({q}): wrong arithmetic on ({a}, {b})")
            return
    if any(mul[b][x] != 1 for (_, b), x in zip(nonzero, invs)):
        problems.append(f"GF({q}): wrong inverse")


def chains_layer(tr, sym_a, sym_b, geo, ranks, rng, problems):
    """The chains module called directly on the chain components of A, B."""
    q = geo.q
    for k in range(geo.m):
        ca, cb = sym_a.chains[k], sym_b.chains[k]
        tr.call("chains.random", random_chain, q, geo.pi[k], rng)
        rows = list(zip(*(d.tolist() for d in geo.levels(ranks, k))))
        tr.call("chains.apply", lambda: [ca.apply(r) for r in rows], items=len(rows))
        table = tr.call("chains.rank_table", ca.rank_table)
        cc = tr.call("chains.compose", compose_chain, ca, cb)
        tr.call("chains.invert", invert_chain, cc)
        cc_table = cc.rank_table()
        back = tr.call("chains.decompose", decompose_chain, q, geo.pi[k], cc_table)
        if back.to_json() != cc.to_json():
            problems.append(f"chain {k + 1}: decompose_chain did not return the composite")
        one = Geometry(geo.p, geo.e, [geo.pi[k]])
        doc = {"sigma": [1], "chains": [ca.to_json()]}
        if not np.array_equal(np.asarray(table), one.apply(doc, np.arange(one.size))):
            problems.append(f"chain {k + 1}: wrong rank table")


def space_layer(tr, cfg, geo, vectors, ranks, table, problems):
    """The space module called directly: scalar ops on the task's vectors,
    vectorized ops on the task's rank table."""
    got = tr.call("space.rank", lambda: [cfg.rank(v) for v in vectors], items=len(vectors))
    back = tr.call("space.unrank", lambda: [cfg.unrank(r) for r in ranks], items=len(ranks))
    weights = tr.call("space.weight", lambda: [weight(v) for v in vectors], items=len(vectors))
    pairs = list(zip(vectors, vectors[1:]))
    dists = tr.call("space.distance", lambda: [distance(u, v) for u, v in pairs], items=len(pairs))
    texts = tr.call("space.format", lambda: [format_vector(v) for v in vectors], items=len(vectors))
    parsed = tr.call("space.parse", lambda: [parse_vector(cfg, t) for t in texts], items=len(texts))
    ranks_a = np.asarray(ranks, dtype=np.int64)
    if (
        got != list(ranks)
        or [geo.rank_of_blocks(v.blocks) for v in back] != list(ranks)
        or weights != geo.weight(ranks_a).tolist()
        or dists != geo.distance(ranks_a[:-1], ranks_a[1:]).tolist()
        or texts != [geo.format(r) for r in ranks]
        or [geo.rank_of_blocks(v.blocks) for v in parsed] != list(ranks)
    ):
        problems.append("space: scalar rank/weight/distance/text result disagrees with the reference")
    every = np.arange(geo.size, dtype=np.int64)
    table = np.asarray(table, dtype=np.int64)
    d = tr.call("space.dist_ranks", dist_ranks, cfg, every, table, items=geo.size)
    s = tr.call("space.sub_ranks", sub_ranks, cfg, table, int(table[0]), items=geo.size)
    w = tr.call("space.weight_array", weight_array, cfg)
    if (
        not np.array_equal(d, geo.distance(every, table))
        or not np.array_equal(s, geo.add(table, int(table[0]), sign=-1))
        or not np.array_equal(w, geo.weight(every))
    ):
        problems.append("space: vectorized rank arithmetic disagrees with the reference")


def translation_layer(tr, geo, vector, problems):
    t = tr.call("symmetry.translation", make_translation, vector)
    every = np.arange(geo.size, dtype=np.int64)
    if not np.array_equal(geo.apply(t.to_json(), every), geo.add(every, geo.rank_of_blocks(vector.blocks))):
        problems.append("make_translation is not v -> v + w")


class SymWorkload:
    """Symmetry round trips on one space with unit block widths."""

    round_size = 1
    min_rounds = 1

    def __init__(self, name, q, m, n, vectors, seed):
        self.name = name
        self.seed = seed
        self.nvec = vectors
        self.cfg, self.geo = make_space(q, [[1] * n] * m)

    def configs(self):
        return [self.cfg]

    def kind(self, i):
        return "roundtrip"

    def inputs(self, i):
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        seeds = (rng.getrandbits(63), rng.getrandbits(63))
        ranks = [rng.randrange(self.geo.size) for _ in range(self.nvec)]
        vectors = [BlockVector(self.cfg, self.geo.blocks(r)) for r in ranks]
        return {"i": i, "seeds": seeds, "ranks": ranks, "vectors": vectors,
                "swap": swap_points(self.geo, rng)}

    def run(self, inp, tr):
        cfg = self.cfg
        a = tr.call("symmetry.random", random_symmetry, cfg, inp["seeds"][0])
        b = tr.call("symmetry.random", random_symmetry, cfg, inp["seeds"][1])
        images = tr.call("symmetry.apply", lambda: [a.apply(v) for v in inp["vectors"]], items=self.nvec)
        c = tr.call("symmetry.compose", compose_symmetry, a, b)
        c_inv = tr.call("symmetry.invert", invert_symmetry, c)
        table = tr.call("symmetry.as_rank_table", as_rank_table, c)
        back = tr.call("symmetry.decompose", _decompose, cfg, table)
        bad = swapped(table, inp["swap"])
        refusal = reject(tr, cfg, bad)
        return {"a": a, "b": b, "images": images, "c": c, "c_inv": c_inv,
                "table": table, "back": back, "bad": bad, "refusal": refusal}

    def check(self, inp, res):
        geo = self.geo
        counters, problems = new_counters(), []
        every = np.arange(geo.size, dtype=np.int64)
        a_doc, c_doc = res["a"].to_json(), res["c"].to_json()
        if [geo.rank_of_blocks(v.blocks) for v in res["images"]] != geo.apply(a_doc, inp["ranks"]).tolist():
            problems.append("Symmetry.apply disagrees with the reference action")
        ta = geo.apply(a_doc, every)
        tb = geo.apply(res["b"].to_json(), every)
        tc = geo.apply(c_doc, every)
        if not np.array_equal(tc, ta[tb]):
            problems.append("compose_symmetry(A, B) is not v -> A(B(v))")
        if not np.array_equal(np.asarray(res["table"]), tc):
            problems.append("as_rank_table disagrees with the reference action")
        if not np.array_equal(geo.apply(res["c_inv"].to_json(), tc), every):
            problems.append("invert_symmetry does not undo the symmetry")
        if isinstance(res["back"], Exception):
            problems.append(f"decompose_full refused an isometry: {res['back']}")
        elif res["back"].to_json() != c_doc:
            problems.append("decompose_full did not return the generating symmetry")
        proves_swap(geo, res["bad"], inp["swap"])
        check_rejection(geo, res["bad"], res["refusal"], counters, problems, "swapped table")
        return counters, problems

    def layers(self, inp, res, tr, problems):
        rng = random.Random(f"{self.name}/{self.seed}/{inp['i']}/layers")
        chains_layer(tr, res["a"], res["b"], self.geo, inp["ranks"], rng, problems)
        space_layer(tr, self.cfg, self.geo, inp["vectors"], inp["ranks"], res["table"], problems)
        translation_layer(tr, self.geo, inp["vectors"][0], problems)
        fields_layer(tr, self.cfg.field.p, self.cfg.field.e, problems)

    def close(self):
        pass


# search: oracle counts, automorphism counts, equivalence queries

# Besides covering q = 2, 3, 4 and mixed widths, the 40-200 ms counts put
# seed-independent tasks around the round's median task time, which the
# seeded equivalence queries would otherwise decide alone.
ORACLE_SPACES = [
    (2, [[1, 1, 1]]), (2, [[1, 1], [1, 1]]), (2, [[1, 2]]), (2, [[1], [1], [1], [1]]),
    (2, [[2, 1]]), (3, [[1, 1]]), (2, [[1], [1], [2]]), (2, [[2], [2]]), (2, [[1, 1, 1, 1]]),
]
AUT_SPACES = [
    (2, [[2, 1], [1, 1]]), (2, [[1, 2], [1, 1]]), (2, [[2], [1], [1], [1]]),
    (2, [[1, 1]] * 3), (2, [[1, 1, 1]] * 2), (2, [[1]] * 5), (3, [[1, 1]] * 2), (4, [[1], [1], [1]]),
    (2, [[1] * 5]), (2, [[2, 1]] * 2), (2, [[1, 1]] * 4),
]
# (label, q, pi, words, copies): pairs scrambled by a random symmetry;
# several copies of a case, each with its own seeded codes, so that the
# round's cost does not hang on one draw
SCRAMBLED = [
    ("hamming-8", 2, [[1]] * 8, 40, 3),
    ("hamming-10", 2, [[1]] * 10, 60, 1),
    ("chain-12", 2, [[1] * 12], 60, 4),
    ("m6-n2", 2, [[1, 1]] * 6, 40, 3),
    ("gf4-m3-n2", 4, [[1, 1]] * 3, 40, 3),
]
# pairs whose distance distributions differ
MISMATCHED = [
    ("hamming-10", 2, [[1]] * 10, 60), ("chain-12", 2, [[1] * 12], 60), ("gf4-m3-n2", 4, [[1, 1]] * 3, 40),
]
# tiny spaces where inequivalence is proved over all_symmetries
BRUTE = [("tiny-m2-n2", 2, [[1, 1], [1, 1]], 4), ("tiny-gf3-m2", 3, [[1], [1]], 4)]


class SearchWorkload:
    """Rounds of searches: the oracle, the automorphism enumeration and the
    equivalence search.  Every round has the same counts and the same
    kinds of query; the queries' codes are drawn afresh from the seed and
    the round's index, so that a run averages several draws of the
    heavy-tailed ones (a chain-12 query takes 0.05 s on most draws and
    over 1 s on a few) instead of repeating one."""

    round_size = (len(ORACLE_SPACES) + len(AUT_SPACES) + sum(case[-1] for case in SCRAMBLED)
                  + len(MISMATCHED) + len(BRUTE))
    # Task times span four orders of magnitude, so the 11th-largest one
    # must not fall between clusters.  Each round has one Hamming-10 query
    # (~2 s) and three ~1 s counts; with at least three rounds, and up to
    # ten, the 11th-largest task is always one of those ~1 s counts.
    min_rounds = 3

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.spaces = {}
        self.groups = {}
        self.rounds = {}
        self.round(0)

    def round(self, r):
        if r in self.rounds:
            return self.rounds[r]
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        oracle = [("oracle", q, pi) for q, pi in ORACLE_SPACES]
        aut = [("aut", q, pi) for q, pi in AUT_SPACES]
        queries = (
            [self._scrambled(rng, *case[:-1]) for case in SCRAMBLED for _ in range(case[-1])]
            + [self._mismatched(rng, *case) for case in MISMATCHED]
            + [self._inequivalent(rng, *case) for case in BRUTE]
        )
        rng.shuffle(queries)
        # spread each kind evenly over the round, so that the warm-up, which
        # stops within the first round, meets every kind
        slots = [((k + 0.5) / len(g), n, task) for n, g in enumerate((oracle, aut, queries))
                 for k, task in enumerate(g)]
        self.rounds[r] = [task for *_, task in sorted(slots, key=lambda s: s[:2])]
        return self.rounds[r]

    def space(self, q, pi):
        key = (q, tuple(tuple(r) for r in pi))
        if key not in self.spaces:
            self.spaces[key] = make_space(q, pi)
        return self.spaces[key]

    def _scrambled(self, rng, label, q, pi, words):
        cfg, geo = self.space(q, pi)
        c1 = rng.sample(range(geo.size), words)
        scramble = random_symmetry(cfg, rng.getrandbits(63))
        c2 = geo.apply(scramble.to_json(), c1).tolist()
        return ("equiv", q, pi, label, c1, c2, "equivalent", scramble)

    def _mismatched(self, rng, label, q, pi, words):
        cfg, geo = self.space(q, pi)
        c1 = rng.sample(range(geo.size), words)
        while True:
            c2 = rng.sample(range(geo.size), words)
            if geo.distance_distribution(c1) != geo.distance_distribution(c2):
                return ("equiv", q, pi, label, c1, c2, "not_equivalent", None)

    def _inequivalent(self, rng, label, q, pi, words):
        """Two codes with one distance distribution that no symmetry maps
        onto each other, proved over the whole group."""
        cfg, geo = self.space(q, pi)
        if label not in self.groups:
            group = [geo.apply(t.to_json(), np.arange(geo.size)) for t in all_symmetries(cfg)]
            if len(group) != isometry_order(q, pi):
                raise RuntimeError(f"{label}: all_symmetries gave {len(group)} maps")
            self.groups[label] = np.stack(group)
        images = self.groups[label]
        for _ in range(10000):
            c1 = rng.sample(range(geo.size), words)
            c2 = rng.sample(range(geo.size), words)
            if geo.distance_distribution(c1) != geo.distance_distribution(c2):
                continue
            orbit = {tuple(sorted(row)) for row in images[:, c1].tolist()}
            if tuple(sorted(c2)) not in orbit:
                return ("equiv", q, pi, label, c1, c2, "not_equivalent", None)
        raise RuntimeError(f"{label}: no inequivalent pair with equal distance distributions")

    def configs(self):
        return [cfg for cfg, _ in self.spaces.values()]

    def kind(self, i):
        return self.inputs(i)[0]

    def inputs(self, i):
        return self.round(i // self.round_size)[i % self.round_size]

    def run(self, inp, tr):
        cfg, _ = self.space(inp[1], inp[2])
        try:
            if inp[0] == "oracle":
                return count_isometries(tr, cfg)
            if inp[0] == "aut":
                return count_automorphisms(tr, cfg)
            return search_equivalence(tr, Code(cfg, inp[4]), Code(cfg, inp[5]))
        except CapExceeded as exc:
            return exc

    def check(self, inp, res):
        counters, problems = new_counters(), []
        kind, q, pi = inp[:3]
        _, geo = self.space(q, pi)
        if isinstance(res, CapExceeded):
            counters["refused"] += 1
        elif kind == "oracle":
            counters["isometries"] = res
            expected = {isometry_order(q, pi), full_order(self.space(q, pi)[0])}
            pinned = PINNED_ISOMETRY_COUNTS.get((q, tuple(tuple(r) for r in pi)))
            if pinned is not None:
                expected.add(pinned)
            if expected != {res}:
                problems.append(f"oracle on q={q} pi={pi}: {res} isometries, expected {sorted(expected)}")
        elif kind == "aut":
            counters["automorphisms"] = res
            if res != automorphism_order(q, pi):
                problems.append(f"automorphisms on q={q} pi={pi}: {res}, expected {automorphism_order(q, pi)}")
        else:
            label, c1, c2, expect = inp[3], inp[4], inp[5], inp[6]
            counters["nodes"] = res.nodes
            if res.verdict == "inconclusive":
                counters["inconclusive"] += 1
            elif res.verdict != expect:
                problems.append(f"equivalent on {label}: {res.verdict}, expected {expect}")
            if res.verdict == "equivalent":
                image = geo.apply(res.witness.to_json(), c1)
                if sorted(image.tolist()) != sorted(c2):
                    problems.append(f"equivalent on {label}: the witness does not map C1 onto C2")
        return counters, problems

    def layers(self, inp, res, tr, problems):
        kind, q, pi = inp[:3]
        cfg, geo = self.space(q, pi)
        every = np.arange(geo.size, dtype=np.int64)
        if kind in ("oracle", "aut"):
            w = tr.call("space.weight_array", weight_array, cfg)
            if not np.array_equal(w, geo.weight(every)):
                problems.append("weight_array disagrees with the reference")
        if kind == "oracle":
            d = tr.call("space.distance_matrix", distance_matrix_array, cfg)
            if not np.array_equal(d, geo.distance(every[:, None], every[None, :])):
                problems.append("distance_matrix_array disagrees with the reference")
        if kind == "equiv":
            c1 = Code(cfg, inp[4])
            inv = tr.call("codes.invariants", code_invariants, c1)
            if [tuple(p) for p in inv["distance_distribution"]] != list(geo.distance_distribution(inp[4])):
                problems.append("code_invariants: wrong distance distribution")
            if inp[7] is not None:
                image = tr.call("codes.apply_to_code", apply_to_code, inp[7], c1)
                if sorted(image.ranks) != sorted(inp[5]):
                    problems.append("apply_to_code disagrees with the reference action")

    def close(self):
        pass


# cli: a fixed session of `python -m ohb.cli` calls


class CliWorkload:
    """One fixed, seeded session of CLI subprocesses, repeated."""

    min_rounds = 1

    def __init__(self, name, seed, root, env):
        self.name = name
        self.seed = seed
        self.env = env
        self.root = root
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(root, ".bench_out"))
        self.first_stdout = {}
        self.spaces = []
        rng = random.Random(f"{name}/{seed}")
        self.session = []
        self._build(rng)
        self.round_size = len(self.session)

    def _write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _space(self, name, q, pi):
        cfg, geo = make_space(q, pi)
        self.spaces.append(cfg)
        return cfg, geo, self._write(f"{name}.json", cfg.to_json())

    def _add(self, sub, args, path, exit_code, expect, layer=None):
        """`expect(doc)` is true when the command's JSON document is right;
        `layer(tr, problems)` is the in-process call the traced run makes
        for this command."""
        argv = [sys.executable, "-m", "ohb.cli", *sub.split(), "--space", path, "--format", "json", *args]
        self.session.append({"sub": sub, "argv": argv, "exit": exit_code, "expect": expect, "layer": layer})

    def _build(self, rng):
        cfg, geo, sa = self._space("hamming-2x2", 2, [[1, 1], [1, 1]])
        _, _, sb = self._space("gf3-chain", 3, [[1, 1]])
        _, _, sc = self._space("antichain", 2, [[1], [1], [2]])
        cfgd, _, sd = self._space("three-chains", 2, [[1, 1]] * 3)
        _, _, se = self._space("too-big", 2, [[2, 2], [2, 2]])
        cfgf, geof, sf = self._space("chain-6", 2, [[1] * 6])

        x, y = rng.randrange(geo.size), rng.randrange(geo.size)
        vx, vy = BlockVector(cfg, geo.blocks(x)), BlockVector(cfg, geo.blocks(y))
        self._add("weight", ["--vec", geo.format(x)], sa, 0,
                  lambda d: d["weight"] == int(geo.weight(x)),
                  lambda tr, pr: self._scalar_layer(tr, cfg, geo, [vx, vy], [x, y], pr))
        self._add("dist", ["--u", geo.format(x), "--v", geo.format(y)], sa, 0,
                  lambda d: d["distance"] == int(geo.distance(x, y)))

        seed_a, seed_b = rng.randrange(1 << 30), rng.randrange(1 << 30)
        a, b = random_symmetry(cfg, seed_a), random_symmetry(cfg, seed_b)
        c = compose_symmetry(a, b)
        every = np.arange(geo.size)
        ta, tb = geo.apply(a.to_json(), every), geo.apply(b.to_json(), every)
        table = ta[tb]
        points = swap_points(geo, rng)
        bad = swapped(table, points)
        proves_swap(geo, bad, points)
        pa, pb = self._write("a.json", a.to_json()), self._write("b.json", b.to_json())
        good_map = self._write("good.json", table.tolist())
        bad_map = self._write("bad.json", bad.tolist())

        self._add("sym gen", ["--seed", str(seed_a)], sa, 0, lambda d: d == a.to_json(),
                  lambda tr, pr: tr.call("symmetry.random", random_symmetry, cfg, seed_a))
        self._add("sym apply", ["--sym", pa, "--vec", geo.format(x)], sa, 0,
                  lambda d: d["vector"] == geo.format(int(ta[x])),
                  lambda tr, pr: (tr.call("symmetry.apply", a.apply, vx), translation_layer(tr, geo, vy, pr)))
        self._add("sym compose", ["--a", pa, "--b", pb], sa, 0,
                  lambda d: np.array_equal(geo.apply(d, every), table) and d == c.to_json(),
                  lambda tr, pr: chains_layer(tr, a, b, geo, [x, y], random.Random(seed_a), pr))
        self._add("sym invert", ["--sym", pa], sa, 0,
                  lambda d: np.array_equal(geo.apply(d, ta), every),
                  lambda tr, pr: tr.call("symmetry.invert", invert_symmetry, a))
        self._add("sym verify", ["--sym", pa], sa, 0, lambda d: d["valid"] is True)
        self._add("sym verify", ["--map", good_map], sa, 0, lambda d: d["valid"] is True,
                  lambda tr, pr: tr.call("symmetry.compose", compose_symmetry, a, b))
        self._add("sym verify", ["--map", bad_map], sa, 1,
                  lambda d: d["valid"] is False and (d["witness"] is None or geo.breaks_distance(bad, *d["witness"])),
                  lambda tr, pr: reject(tr, cfg, bad))
        self._add("sym decompose", ["--map", good_map], sa, 0,
                  lambda d: d == c.to_json(),
                  lambda tr, pr: (tr.call("symmetry.as_rank_table", as_rank_table, c),
                                  tr.call("symmetry.decompose", _decompose, cfg, table)))
        self._add("sym decompose", ["--map", bad_map], sa, 1,
                  lambda d: d["witness"] is None or geo.breaks_distance(bad, *d["witness"]))

        order = isometry_order(2, [[1, 1], [1, 1]])
        self._add("order", ["--formula"], sa, 0, lambda d: d["formula_order"] == order)
        self._add("order", ["--oracle"], sa, 0, lambda d: d["oracle_count"] == order,
                  lambda tr, pr: self._oracle_layer(tr, cfg, geo, pr))
        order3 = isometry_order(3, [[1, 1]])
        self._add("order", ["--both"], sb, 0,
                  lambda d: d["formula_order"] == d["oracle_count"] == order3 == PINNED_ISOMETRY_COUNTS[(3, ((1, 1),))],
                  lambda tr, pr: fields_layer(tr, 3, 1, pr))
        self._add("order", ["--oracle"], se, 1, lambda d: "cap" in d["error"])
        self._add("aut", ["--formula"], sc, 0,
                  lambda d: d["formula_order"] == automorphism_order(2, [[1], [1], [2]]))
        aut_d = automorphism_order(2, [[1, 1]] * 3)
        self._add("aut", ["--enumerate"], sd, 0, lambda d: d["enumerated_order"] == aut_d,
                  lambda tr, pr: count_automorphisms(tr, cfgd))
        self._add("aut", ["--formula"], sd, 1, lambda d: "single level" in d["error"])

        words = rng.sample(range(geof.size), 12)
        scramble = random_symmetry(cfgf, rng.getrandbits(63))
        image = geof.apply(scramble.to_json(), words).tolist()
        other = rng.sample(range(geof.size), 12)
        while geof.distance_distribution(other) == geof.distance_distribution(words):
            other = rng.sample(range(geof.size), 12)
        c1 = self._write("c1.json", {"config": cfgf.to_json(), "vectors": [geof.format(r) for r in words]})
        c2 = self._write("c2.json", {"config": cfgf.to_json(), "vectors": [geof.format(r) for r in image]})
        c3 = self._write("c3.json", {"config": cfgf.to_json(), "vectors": [geof.format(r) for r in other]})
        self._add("equiv", ["--c1", c1, "--c2", c2], sf, 0,
                  lambda d: d["verdict"] == "equivalent"
                  and sorted(geof.apply(d["witness"], words).tolist()) == sorted(image),
                  lambda tr, pr: self._codes_layer(tr, cfgf, words, scramble, image, pr))
        self._add("equiv", ["--c1", c1, "--c2", c3], sf, 0, lambda d: d["verdict"] == "not_equivalent")
        self._add("report", [], sa, 0,
                  lambda d: d["full_order"] == d["isometry_count"] == order == PINNED_ISOMETRY_COUNTS[(2, ((1, 1), (1, 1)))],
                  lambda tr, pr: self._floor_layer(tr))

    def _scalar_layer(self, tr, cfg, geo, vectors, ranks, problems):
        every = np.arange(geo.size)
        space_layer(tr, cfg, geo, vectors, ranks, every[::-1].copy(), problems)
        fields_layer(tr, cfg.field.p, cfg.field.e, problems)

    def _oracle_layer(self, tr, cfg, geo, problems):
        count_isometries(tr, cfg)
        every = np.arange(geo.size)
        d = tr.call("space.distance_matrix", distance_matrix_array, cfg)
        if not np.array_equal(d, geo.distance(every[:, None], every[None, :])):
            problems.append("distance_matrix_array disagrees with the reference")

    def _codes_layer(self, tr, cfg, words, scramble, image, problems):
        c1, c2 = Code(cfg, words), Code(cfg, image)
        search_equivalence(tr, c1, c2)
        tr.call("codes.invariants", code_invariants, c1)
        if sorted(tr.call("codes.apply_to_code", apply_to_code, scramble, c1).ranks) != sorted(image):
            problems.append("apply_to_code disagrees with the reference action")

    def _floor_layer(self, tr):
        for name, code in (("cli.interp", "pass"), ("cli.import", "import ohb")):
            tr.call(name, subprocess.run, [sys.executable, "-c", code],
                    env=self.env, cwd=self.root, check=True, capture_output=True)

    def configs(self):
        return self.spaces

    def kind(self, i):
        return "cli"

    def inputs(self, i):
        return (i % len(self.session), self.session[i % len(self.session)])

    def run(self, inp, tr):
        return tr.call("cli.call." + inp[1]["sub"].replace(" ", "."), subprocess.run, inp[1]["argv"],
                       env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120)

    def check(self, inp, res):
        counters, problems = new_counters(), []
        idx, cmd = inp
        what = " ".join(cmd["argv"][3:])
        if res.returncode != cmd["exit"]:
            problems.append(f"ohb {what}: exit {res.returncode}, expected {cmd['exit']}: {res.stderr.strip()[-300:]}")
            return counters, problems
        first = self.first_stdout.setdefault(idx, res.stdout)
        if res.stdout != first:
            problems.append(f"ohb {what}: output differs from the first identical call")
        try:
            doc = json.loads(res.stdout)
        except json.JSONDecodeError:
            problems.append(f"ohb {what}: stdout is not one JSON document")
            return counters, problems
        try:
            right = cmd["expect"](doc)
        except (KeyError, TypeError, IndexError):
            right = False
        if not right:
            problems.append(f"ohb {what}: document disagrees with the in-process result: {res.stdout[:300]}")
        if cmd["sub"] == "equiv":
            counters["nodes"] = doc["nodes"]
        if cmd["sub"] == "sym verify" and not doc["valid"] and doc["witness"] is None:
            counters["unwitnessed"] += 1
        return counters, problems

    def layers(self, inp, res, tr, problems):
        if inp[1]["layer"] is not None:
            inp[1]["layer"](tr, problems)

    def close(self):
        for name in os.listdir(self.dir):
            os.unlink(os.path.join(self.dir, name))
        os.rmdir(self.dir)
