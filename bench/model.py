"""The benchmark's own finite-algebra code.

Inputs are generated with it and every verdict is checked with it, so
none of it imports prevar.  Everything favours plain, obviously correct
loops over speed: it runs outside the timed region.
"""

from __future__ import annotations

import itertools
import json
from math import gcd

UNARY = (("a", 1),)


class Alg:
    """A finite algebra: signature ((name, arity), ...), carrier 0..size-1 and
    one row-major table per operation (prevar's file format)."""

    __slots__ = ("sig", "size", "ops")

    def __init__(self, sig, size, ops):
        self.sig = tuple((n, a) for n, a in sig)
        self.size = size
        self.ops = {n: tuple(ops[n]) for n, _ in self.sig}

    def text(self) -> str:
        doc = {
            "signature": [{"name": n, "arity": a} for n, a in self.sig],
            "size": self.size,
            "ops": {n: list(self.ops[n]) for n, _ in self.sig},
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def parse(cls, text: str) -> "Alg":
        doc = json.loads(text)
        sig = tuple((e["name"], e["arity"]) for e in doc["signature"])
        return cls(sig, doc["size"], doc["ops"])

    def apply(self, name, args) -> int:
        idx = 0
        for x in args:
            idx = idx * self.size + x
        return self.ops[name][idx]

    def constraints(self):
        """Every (op, args, result) triple of the tables."""
        for name, arity in self.sig:
            for args in itertools.product(range(self.size), repeat=arity):
                yield name, args, self.apply(name, args)


def table(sig, size, fn) -> Alg:
    """Build an algebra from ``fn(name, args) -> value``."""
    return Alg(sig, size, {
        n: [fn(n, args) for args in itertools.product(range(size), repeat=a)]
        for n, a in sig
    })


def cycle(d: int) -> Alg:
    return Alg(UNARY, d, {"a": [(i + 1) % d for i in range(d)]})


def union(parts) -> Alg:
    """Disjoint union of unary algebras."""
    out, off = [], 0
    for p in parts:
        out.extend(off + v for v in p.ops["a"])
        off += p.size
    return Alg(UNARY, off, {"a": out})


def relabel(alg: Alg, perm) -> Alg:
    """The copy in which old element x is called perm[x]."""
    inv = [0] * alg.size
    for x, y in enumerate(perm):
        inv[y] = x
    return table(alg.sig, alg.size,
                 lambda n, args: perm[alg.apply(n, [inv[a] for a in args])])


def shuffled(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


# -- closure and homomorphisms ---------------------------------------------------


def closure(sig, coords, seeds):
    """Subalgebra of the product of ``coords`` generated by ``seeds`` (tuples)."""
    elems = {tuple(f.apply(n, ()) for f in coords) for n, a in sig if a == 0}
    elems |= {tuple(s) for s in seeds}
    while True:
        fresh = set()
        current = list(elems)
        for name, arity in sig:
            if arity == 0:
                continue
            for args in itertools.product(current, repeat=arity):
                t = tuple(f.apply(name, [arg[k] for arg in args])
                          for k, f in enumerate(coords))
                if t not in elems:
                    fresh.add(t)
        if not fresh:
            return elems
        elems |= fresh


def closed_set(alg: Alg, seed):
    """Least subset of ``alg`` containing ``seed`` and closed under the ops."""
    return {t[0] for t in closure(alg.sig, [alg], [(x,) for x in seed])}


def restrict(alg: Alg, carrier) -> Alg:
    """Subalgebra on a closed subset, elements renumbered in ascending order."""
    carrier = sorted(carrier)
    pos = {x: i for i, x in enumerate(carrier)}
    return Alg(alg.sig, len(carrier), {
        n: [pos[alg.apply(n, args)] for args in itertools.product(carrier, repeat=a)]
        for n, a in alg.sig
    })


def homs(a: Alg, b: Alg, seed=None, injective=False, first=False):
    """Every homomorphism a -> b extending ``seed``, by depth-first search that
    assigns elements in index order and checks a table entry as soon as all
    of its elements are assigned."""
    if b.size == 0:
        return [()] if a.size == 0 else []
    by_level = [[] for _ in range(a.size)]
    for name, args, res in a.constraints():
        by_level[max(args + (res,))].append((name, args, res))
    seed = seed or {}
    out, h, used = [], [None] * a.size, set()

    def extend(k):
        if k == a.size:
            out.append(tuple(h))
            return first
        choices = [seed[k]] if k in seed else range(b.size)
        for v in choices:
            if injective and v in used:
                continue
            h[k] = v
            if all(b.apply(n, [h[x] for x in args]) == h[r] for n, args, r in by_level[k]):
                used.add(v)
                stop = extend(k + 1)
                used.discard(v)
                if stop:
                    return True
        h[k] = None
        return False

    extend(0)
    return out


def is_hom(a: Alg, b: Alg, mapping) -> bool:
    return len(mapping) == a.size and all(0 <= v < b.size for v in mapping) and all(
        b.apply(n, [mapping[x] for x in args]) == mapping[r] for n, args, r in a.constraints())


def separation(a: Alg, gens):
    """(member, first unseparated pair) for membership of ``a`` in SP(gens)."""
    maps = [h for g in gens for h in homs(a, g)]
    for x in range(a.size):
        for y in range(x + 1, a.size):
            if not any(h[x] != h[y] for h in maps):
                return False, [x, y]
    return True, None


def isomorphic(a: Alg, b: Alg) -> bool:
    return a.size == b.size and bool(homs(a, b, injective=True, first=True))


# -- partitions and congruences -----------------------------------------------------


def partitions(n):
    """Every partition of 0..n-1 as a restricted-growth block vector."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))
    if n == 0:
        yield ()
        return
    yield from grow([0], 0)


def compatible(alg: Alg, blocks) -> bool:
    for name, arity in alg.sig:
        if arity == 0:
            continue
        for args in itertools.product(range(alg.size), repeat=arity):
            for slot in range(arity):
                for other in range(alg.size):
                    if blocks[other] == blocks[args[slot]] and other != args[slot]:
                        alt = list(args)
                        alt[slot] = other
                        if blocks[alg.apply(name, args)] != blocks[alg.apply(name, alt)]:
                            return False
    return True


def congruences(alg: Alg):
    return [p for p in partitions(alg.size) if compatible(alg, p)]


def quotient(alg: Alg, blocks) -> Alg:
    reps = {}
    for x, b in enumerate(blocks):
        reps.setdefault(b, x)
    order = sorted(reps)
    return Alg(alg.sig, len(order), {
        n: [blocks[alg.apply(n, [reps[b] for b in args])]
            for args in itertools.product(order, repeat=a)]
        for n, a in alg.sig
    })


def canonical_blocks(labels):
    seen = {}
    return tuple(seen.setdefault(v, len(seen)) for v in labels)


def meet(partition_list, n):
    """Meet of partitions of 0..n-1; the full relation for the empty list."""
    return canonical_blocks(tuple(tuple(p[x] for p in partition_list) for x in range(n)))


# -- words over an alphabet (string rewriting) ------------------------------------------


def rewrite_nf(rules, word):
    """Normal form by rewriting at the rightmost match of any rule.

    A different strategy from prevar's on purpose: on a confluent system
    both must reach the same word.
    """
    w = tuple(word)
    while True:
        for pos in range(len(w) - 1, -1, -1):
            hit = next(((l, r) for l, r in rules if w[pos:pos + len(l)] == l), None)
            if hit:
                w = w[:pos] + hit[1] + w[pos + len(hit[0]):]
                break
        else:
            return w


def confluent(rules) -> bool:
    """Every overlap and containment of left-hand sides joins."""
    for (l1, r1), (l2, r2) in itertools.product(rules, repeat=2):
        for pos in range(len(l1) - len(l2) + 1):
            if l1[pos:pos + len(l2)] == l2 and (l1, r1) != (l2, r2):
                if rewrite_nf(rules, r1) != rewrite_nf(rules, l1[:pos] + r2 + l1[pos + len(l2):]):
                    return False
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                if rewrite_nf(rules, r1 + l2[k:]) != rewrite_nf(rules, l1[:-k] + r2):
                    return False
    return True


def derivable(relations, u, v) -> bool:
    """Bounded word closure: is v reachable from u by applying relations in
    either direction, through words at most four letters longer than both
    and among the first 20000 words reached?"""
    limit = 20000
    u, v = tuple(u), tuple(v)
    bound = max(len(u), len(v)) + 4
    moves = [(l, r) for l, r in relations] + [(r, l) for l, r in relations]
    seen, frontier = {u}, [u]
    while frontier and len(seen) < limit:
        nxt = []
        for w in frontier:
            for l, r in moves:
                for pos in range(len(w) - len(l) + 1):
                    if w[pos:pos + len(l)] == l:
                        x = w[:pos] + r + w[pos + len(l):]
                        if len(x) <= bound and x not in seen:
                            if x == v:
                                return True
                            seen.add(x)
                            nxt.append(x)
        frontier = nxt
    return u == v
