"""An independent model of the rules the tests hold ohb to.

Neither this module nor perfbench/reference.py imports ohb.  That file,
loaded by path under its own name (pytest puts both tests/ and perfbench/
on sys.path), gives `Geometry`: distance, vector addition, rank action.
Here each other rule is stated once: the zero-prefix extraction, the
bijection refusal, decompose_chain's refusal order and anchors, the
witness regimes and decompose_full's probe rule.  A decomposition returns
a JSON document or raises `Refusal`, which gives (kind, message, witness,
chain index) for a witness cap, kind naming ohb's exception class.
"""

import importlib.util
from functools import cache
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "ohb_independent_reference", Path(__file__).resolve().parent.parent / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)
Geometry = reference.Geometry
automorphism_order = reference.automorphism_order

ANCHOR_ROWS = 16  # after the anchors, the rows of ranks 0..15 are scanned


class Refusal(Exception):
    def __init__(self, under):
        super().__init__()
        self.under = under  # the witness cap -> (kind, message, witness, chain index)


def reject(G, f, anchors, ranks, context, chain_index=None):
    """f refused with its witness pair, or with the context if none is found."""
    @cache
    def found(every_row):  # caps on one side of len(f) scan the same rows
        return witness(G, f, anchors, len(f) if every_row else 0)

    def under(cap):
        w = None if cap is None else found(len(f) <= cap)
        if w is None:
            return "StructureError", context, None, chain_index
        return "NotIsometryError", f"distance not preserved for {ranks} {w[0]} and {w[1]}", w, None

    return Refusal(under)


def outcomes(decompose, *args, caps):
    """What decompose returns or how it refuses, under each witness cap."""
    try:
        doc = decompose(*args)
    except Refusal as exc:
        return [exc.under(cap) for cap in caps]
    return [doc] * len(caps)


def geometry(q, pi) -> Geometry:
    """The geometry of block widths pi over the field of q = p^e elements."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return Geometry(p, next(e for e in range(1, q) if p ** e == q), pi)


def witness(G, f, anchors, cap):
    """The first bad column of the first bad row, a pair (u, v) with d(u, v)
    != d(f(u), f(v)), or None.  The rows scanned: none with cap None, all up
    to cap points, else the anchors' and those of ranks 0..ANCHOR_ROWS-1."""
    if cap is None:
        return None
    S = len(f)
    rows = range(S) if S <= cap else list(dict.fromkeys([*anchors, *range(min(S, ANCHOR_ROWS))]))
    every, step = np.arange(S), max(1, (1 << 13) // S)
    for i in range(0, len(rows), step):
        us = np.asarray(rows[i:i + step])[:, None]
        bad = np.argwhere(G.distance(us, every) != G.distance(f[us], f))
        if len(bad):
            return int(us[bad[0][0], 0]), int(bad[0][1])
    return None


def bijection(table, size) -> np.ndarray:
    """The table as int64 ranks, refused for an entry out of range, then at
    the first rank whose image an earlier rank has, paired with the first."""
    f = np.asarray(table, dtype=np.int64)
    if ((f < 0) | (f >= size)).any():
        raise Refusal(lambda cap: ("UsageError", "table entry out of range", None, None))
    order = np.argsort(f, kind="stable")  # each image's ranks in rank order
    images = f[order]
    later = order[1:][images[1:] == images[:-1]]
    if len(later):
        r = int(later.min())
        u = int(order[np.searchsorted(images, f[r])])
        text = f"not a bijection: ranks {u} and {r} share the image {f[r]}"
        raise Refusal(lambda cap: ("NotIsometryError", text, (u, r), None))
    return f


def decompose_chain(q, chain_pi, table):
    """decompose_chain: the triangular map whose levels are read at the zero
    prefix, if its rank table is the table.  Row t, column x of level j is
    the level-j digit of the image of the row whose levels above j have rank
    t, whose level j is x and whose levels below are 0."""
    G, place = geometry(q, [chain_pi]), [1, *np.cumprod([q ** k for k in chain_pi]).tolist()]
    f = bijection(table, G.size)

    def refusal(context, *anchors):
        return reject(G, f, anchors, "row ranks", f"bijection has no triangular form: {context}")

    digits = G.levels(f, 0)
    levels = [digits[j][np.arange(G.size // place[j + 1])[:, None] * place[j + 1] + np.arange(q ** k) * place[j]]
              for j, k in enumerate(chain_pi)]
    for j, level in enumerate(levels):
        order = np.argsort(level, axis=1, kind="stable")
        equal = np.argwhere(np.diff(np.take_along_axis(level, order, axis=1), axis=1) == 0)
        if len(equal):
            t, i = equal[0]
            raise refusal(f"level {j + 1}, tail {t}: extracted entry is not a permutation",
                          *(int(t) * place[j + 1] + int(x) * place[j] for x in order[t, i:i + 2]))
    rt = G.apply({"sigma": [1], "chains": [{"tables": levels}]}, np.arange(G.size))
    bad = np.flatnonzero(rt != f)
    if len(bad):
        r = int(bad[0])
        raise refusal(f"rank {r}: map disagrees with its zero-prefix extraction "
                      f"({f[r]} vs {rt[r]}), so some level reads a lower level", r)
    return {"pi": list(chain_pi), "tables": [level.tolist() for level in levels]}


def decompose_full(G, table):
    """decompose_full: with w = f(0), chain k's weight-1 points of level 1,
    less w, must land on those of one chain tau(k) of k's widths; chain k's
    axis, less w, must stay in tau(k) and decompose there; the chain maps,
    tau(k)'s digit of f on chain k's axis, must then give f."""
    f = bijection(table, G.size)

    def refusal(chain_index, context, *anchors):
        return reject(G, f, anchors, "ranks", context, chain_index)

    def digit(r, i):
        return r // G.chain_place[i] % G.chain_size[i]

    m, w = G.m, int(f[0])
    axes = [f[np.arange(G.chain_size[k]) * G.chain_place[k]] for k in range(m)]
    moved = [G.add(axis, w, -1) for axis in axes]
    tau = [None] * m
    for k in range(m):
        for x in range(1, G.level_size[k][0]):
            r, img = x * G.chain_place[k], int(moved[k][x])
            hit = [i for i in range(m) if digit(img, i)]
            if len(hit) != 1:
                raise refusal(k + 1, f"image of a weight-1 point of chain {k + 1} has weight != 1", r)
            if digit(img, hit[0]) >= G.level_size[hit[0]][0]:
                raise refusal(k + 1, f"image of a weight-1 point of chain {k + 1} has weight > 1", r)
            if tau[k] not in (None, hit[0]):
                raise refusal(k + 1, f"chain {k + 1} maps into two different chains", r)
            tau[k] = hit[0]
    # a bijection sends no two chains into one: their probes are as many as
    # the weight-1 points of the first levels they land on
    for k in range(m):
        if G.pi[k] != G.pi[tau[k]]:
            raise refusal(k + 1, f"chain {k + 1} maps onto a chain with different widths")
    chains = []
    for k, i in enumerate(tau):
        place = G.chain_place[k]
        off = np.flatnonzero(moved[k] != digit(moved[k], i) * G.chain_place[i])
        if len(off):
            raise refusal(k + 1, f"image of chain {k + 1} leaves chain {i + 1}", int(off[0]) * place)
        try:
            decompose_chain(G.q, G.pi[k], digit(moved[k], i))
        except Refusal as exc:
            raise Refusal(lambda cap, chain=exc.under: on_axis(chain(cap), k + 1, place)) from exc
        chains.append(decompose_chain(G.q, G.pi[k], digit(axes[k], i)))  # a translate of the above
    doc = {"sigma": [tau.index(i) + 1 for i in range(m)], "chains": chains}
    bad = np.flatnonzero(G.apply(doc, np.arange(G.size)) != f)
    if len(bad):
        raise refusal(None, f"map disagrees with its chain decomposition at rank {bad[0]}", int(bad[0]))
    return doc


def on_axis(refused, chain_index, place):
    """A chain's refusal as its axis refuses: the witness scaled, else the chain named."""
    kind, text, w, _ = refused
    if w is None:
        return kind, text, None, chain_index
    u, v = (x * place for x in w)
    return kind, f"distance not preserved for ranks {u} and {v}", (u, v), None
