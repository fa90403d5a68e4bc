"""String rewriting with shortlex Knuth-Bendix completion.

Words are tuples of letters (letters may be multi-character, e.g. "u1").
Rules always decrease the shortlex order induced by the declared
alphabet order, which makes reduction terminating; completion resolves
critical pairs to a fixpoint under explicit budgets, since it need not
halt in general.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algcore import AlgebraError, Budget, DEFAULT_BUDGET

Word = tuple[str, ...]

EPSILON: Word = ()


def _shortlex(alphabet: Sequence[str]):
    """The shortlex key over ``alphabet``, with the letter order built once."""
    order = {letter: i for i, letter in enumerate(alphabet)}
    return lambda w: (len(w), tuple(order[c] for c in w))


def shortlex_key(alphabet: Sequence[str], w: Word):
    return _shortlex(alphabet)(w)


def _check_letters(alphabet: Sequence[str], words: Iterable[Word]) -> None:
    for w in words:
        for c in w:
            if c not in alphabet:
                raise AlgebraError(f"letter {c!r} outside the alphabet")


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    # the text format separates letters by whitespace and sides by "=", reads
    # "1" as the empty word and a line that starts with "#" as a comment
    if "" in alphabet:
        raise AlgebraError("alphabet letters must be nonempty")
    if len(set(alphabet)) != len(alphabet):
        raise AlgebraError("alphabet letters must be distinct")
    for c in alphabet:
        if c == "1" or c.startswith("#") or "=" in c or any(ch.isspace() for ch in c):
            raise AlgebraError(f"letter {c!r} is '1', starts with '#' or holds '=' or whitespace")


@dataclass(frozen=True)
class RewriteSystem:
    alphabet: tuple[str, ...]
    rules: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "rules", tuple((tuple(l), tuple(r)) for l, r in self.rules))
        _check_alphabet(self.alphabet)
        key = _shortlex(self.alphabet)
        for lhs, rhs in self.rules:
            _check_letters(self.alphabet, (lhs, rhs))
            if not lhs:
                raise AlgebraError("a rule may not rewrite the empty word")
            if not key(lhs) > key(rhs):
                raise AlgebraError(f"rule {lhs} -> {rhs} does not decrease shortlex")

    @classmethod
    def _unchecked(cls, alphabet: tuple[str, ...], rules) -> "RewriteSystem":
        """A system that is valid by construction (shortlex-oriented rules
        over a checked alphabet): not re-validated."""
        rs = object.__new__(cls)
        object.__setattr__(rs, "alphabet", alphabet)
        object.__setattr__(rs, "rules", tuple(rules))
        return rs


@dataclass(frozen=True)
class Presentation:
    alphabet: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(
            self, "relations", tuple((tuple(l), tuple(r)) for l, r in self.relations)
        )
        _check_alphabet(self.alphabet)
        for rel in self.relations:
            _check_letters(self.alphabet, rel)


def _find(w: Word, lhs: Word) -> int:
    """The leftmost position of ``lhs`` (nonempty) in ``w``, or -1."""
    n, first = len(lhs), lhs[0]
    for pos in range(len(w) - n + 1):
        if w[pos] == first and w[pos : pos + n] == lhs:
            return pos
    return -1


def _reduce(rules: Sequence[tuple[Word, Word]], w: Word) -> Word:
    while True:
        for lhs, rhs in rules:
            pos = _find(w, lhs)
            if pos >= 0:
                w = w[:pos] + rhs + w[pos + len(lhs) :]
                break
        else:
            return w


def reduce(rs: RewriteSystem, word: Iterable[str]) -> Word:
    """Rewrite to a normal form: first rule in declaration order that
    matches anywhere is applied at its leftmost match, repeatedly.

    The strategy only matters for non-confluent systems; shortlex decrease
    guarantees termination either way.  A letter outside the system's
    alphabet raises ``AlgebraError``.
    """
    w = tuple(word)
    _check_letters(rs.alphabet, (w,))
    return _reduce(rs.rules, w)


def critical_pairs(rs: RewriteSystem) -> list[tuple[Word, Word]]:
    """Reduct pairs from every overlap and containment of left-hand sides."""
    out = []
    for (l1, r1), (l2, r2) in itertools.product(rs.rules, repeat=2):
        # containment: l2 occurs inside l1 (skip the identical full match)
        for pos in range(len(l1) - len(l2) + 1):
            if l1[pos : pos + len(l2)] == l2:
                if (l1, r1) == (l2, r2) and pos == 0 and len(l1) == len(l2):
                    continue
                out.append((r1, l1[:pos] + r2 + l1[pos + len(l2) :]))
        # proper overlap: a nonempty proper suffix of l1 is a prefix of l2
        for k in range(1, min(len(l1), len(l2))):
            if l1[len(l1) - k :] == l2[:k]:
                out.append((r1 + l2[k:], l1[: len(l1) - k] + r2))
    return out


@dataclass
class CompletionResult:
    system: RewriteSystem
    completed: bool
    reason: Optional[str] = None


def knuth_bendix(presentation: Presentation, budget: Budget = DEFAULT_BUDGET) -> CompletionResult:
    """Orient by shortlex and resolve critical pairs to a fixpoint.

    Exhausting ``max_rules`` or ``max_word_len`` returns the partial system
    with a reason instead of a completed one.  The alphabet order of the
    presentation fixes the orientation, so results are reproducible.
    """
    alphabet = presentation.alphabet
    key = _shortlex(alphabet)
    rules: list[tuple[Word, Word]] = []
    queue = deque(presentation.relations)

    def current_system() -> RewriteSystem:
        return RewriteSystem._unchecked(alphabet, rules)

    while queue:
        s, t = queue.popleft()
        s, t = _reduce(rules, s), _reduce(rules, t)
        if s == t:
            continue
        lhs, rhs = (s, t) if key(s) > key(t) else (t, s)
        if len(lhs) > budget.max_word_len:
            return CompletionResult(current_system(), False, f"word length budget hit by {lhs}")
        # interreduce: requeue rules whose sides the new rule touches
        survivors = []
        for old in rules:
            if _find(old[0], lhs) >= 0 or _find(old[1], lhs) >= 0:
                queue.append(old)
            else:
                survivors.append(old)
        survivors.append((lhs, rhs))
        rules = survivors
        if len(rules) > budget.max_rules:
            return CompletionResult(current_system(), False, "rule budget exhausted")
        for u, v in critical_pairs(current_system()):
            if _reduce(rules, u) != _reduce(rules, v):
                queue.append((u, v))
    return CompletionResult(current_system(), True)


def words_equal(rs: RewriteSystem, a: Iterable[str], b: Iterable[str]) -> bool:
    return reduce(rs, a) == reduce(rs, b)


def coproduct_presentation(factors: Sequence[Presentation], shared: Sequence[str]) -> Presentation:
    """Union of the presentations with the shared letters identified.

    Non-shared letters must not collide across factors (rename first);
    every shared letter must occur in every factor's alphabet.
    """
    if not factors:
        raise AlgebraError("a coproduct needs at least one factor")
    shared = list(shared)
    for p in factors:
        for s in shared:
            if s not in p.alphabet:
                raise AlgebraError(f"shared letter {s!r} missing from a factor")
    alphabet: list[str] = []
    for p in factors:
        for c in p.alphabet:
            if c in shared:
                if c not in alphabet:
                    alphabet.append(c)
            elif c in alphabet:
                raise AlgebraError(f"non-shared letter {c!r} appears in two factors")
            else:
                alphabet.append(c)
    relations = tuple(rel for p in factors for rel in p.relations)
    return Presentation(tuple(alphabet), relations)


# -- text format ----------------------------------------------------------
#
# alphabet line, then one "lhs = rhs" per line; the empty word is "1".


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    if "" in alphabet:
        raise AlgebraError("alphabet letters must be nonempty")
    text = text.strip()
    if text == "1":
        return EPSILON
    letters: list[str] = []
    for token in text.split():
        if token in alphabet:
            letters.append(token)
            continue
        # fall back to greedy longest-prefix decomposition of a fused token
        rest = token
        while rest:
            match = None
            for c in sorted(alphabet, key=len, reverse=True):
                if rest.startswith(c):
                    match = c
                    break
            if match is None:
                raise AlgebraError(f"cannot read {token!r} over {list(alphabet)}")
            letters.append(match)
            rest = rest[len(match) :]
    return tuple(letters)


def format_word(w: Word) -> str:
    return " ".join(w) if w else "1"


def parse_presentation(text: str) -> Presentation:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise AlgebraError("empty presentation")
    alphabet = tuple(lines[0].split())
    relations = []
    for ln in lines[1:]:
        if "=" not in ln:
            raise AlgebraError(f"expected 'lhs = rhs' in {ln!r}")
        lhs, rhs = ln.split("=", 1)
        relations.append((parse_word(lhs, alphabet), parse_word(rhs, alphabet)))
    return Presentation(alphabet, tuple(relations))


def format_presentation(p: Presentation) -> str:
    lines = [" ".join(p.alphabet)]
    lines.extend(f"{format_word(l)} = {format_word(r)}" for l, r in p.relations)
    return "\n".join(lines) + "\n"
