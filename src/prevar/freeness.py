"""Normal forms for the free algebras of two unary-plus-tag varieties.

Both varieties share the signature: a constant ``0``, unary ``p`` and
``q``, and a ternary ``t``.  Nonproliferation identities make ``0``
absorbing under ``p, q`` and collapse any ``t`` whose argument is ``0``
or another ``t``.  What distinguishes the varieties is which surviving
triples of pure words the remaining identity schema kills:

* ``TWO_GENERATED``:   t vanishes whenever its three arguments lie in a
  subalgebra generated by two elements.
* ``STEM_SPLIT``:      t vanishes on (u, p s, q s) for a common s, and on
  (m*v-or-m*w, v, w), i.e. when the first argument grows out of one of
  the last two.

Free algebras here are infinite, so they are represented lazily by
normal forms (Zero, a word applied to a generator, or a surviving tag),
never as finite tables.  The survival predicates are derived facts; the
module also ships an instance-enumeration oracle and the two are held to
agree on a bounded exhaustive sweep.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .algcore import AlgebraError, App, Term, Var


class CollapseRule(enum.Enum):
    TWO_GENERATED = "two-generated"
    STEM_SPLIT = "stem-split"


@dataclass(frozen=True)
class Zero:
    def __repr__(self):
        return "Zero()"


ZERO = Zero()


@dataclass(frozen=True)
class Word:
    """A {p,q}-word applied to a generator; leftmost letter applied last.

    ``Word("pq", 0)`` denotes p(q(x0)).
    """

    letters: str
    gen: int

    def __post_init__(self):
        if not isinstance(self.letters, str) or self.letters.strip("pq"):
            raise AlgebraError(f"bad word letters {self.letters!r}")
        if type(self.gen) is not int or self.gen < 0:
            raise AlgebraError(f"bad word generator {self.gen!r}")

    def prepend(self, letter: str) -> "Word":
        return Word(letter + self.letters, self.gen)

    def extends(self, other: "Word") -> bool:
        """True iff self = m*other for some (possibly empty) word m."""
        return self.gen == other.gen and self.letters.endswith(other.letters)


@dataclass(frozen=True)
class Tag:
    u: Word
    v: Word
    w: Word


FreeElement = Zero | Word | Tag


@dataclass(frozen=True)
class FreeTermContext:
    rule: CollapseRule
    num_gens: int

    def __post_init__(self):
        if self.num_gens < 0:
            raise AlgebraError("generator count must be a natural number")


def tag_survives(rule: CollapseRule, u: Word, v: Word, w: Word) -> bool:
    """The derived survival predicate for a tag over three pure words."""
    if rule is CollapseRule.TWO_GENERATED:
        return len({u.gen, v.gen, w.gen}) == 3
    if v.letters[:1] == "p" and w.letters[:1] == "q" \
            and v.letters[1:] == w.letters[1:] and v.gen == w.gen:
        return False
    if u.extends(v) or u.extends(w):
        return False
    return True


def make_tag(ctx: FreeTermContext, u: FreeElement, v: FreeElement, w: FreeElement) -> FreeElement:
    """Value of t on three normal forms: collapse, or a surviving tag."""
    if not (isinstance(u, Word) and isinstance(v, Word) and isinstance(w, Word)):
        return ZERO
    if tag_survives(ctx.rule, u, v, w):
        return Tag(u, v, w)
    return ZERO


def apply_letter(letter: str, el: FreeElement) -> FreeElement:
    if isinstance(el, Word):
        return el.prepend(letter)
    return ZERO


def apply_word(letters: str, el: FreeElement) -> FreeElement:
    for c in reversed(letters):
        el = apply_letter(c, el)
    return el


def normal_form(ctx: FreeTermContext, term: Term) -> FreeElement:
    """Normal form of a term over {0, p, q, t} and the context's generators."""
    if isinstance(term, Var):
        if not 0 <= term.index < ctx.num_gens:
            raise AlgebraError(f"generator {term.index} outside the context")
        return Word("", term.index)
    if term.op == "0":
        if term.args:
            raise AlgebraError("'0' is a constant")
        return ZERO
    if term.op in ("p", "q"):
        if len(term.args) != 1:
            raise AlgebraError(f"{term.op!r} is unary")
        return apply_letter(term.op, normal_form(ctx, term.args[0]))
    if term.op == "t":
        if len(term.args) != 3:
            raise AlgebraError("'t' is ternary")
        return make_tag(ctx, *(normal_form(ctx, a) for a in term.args))
    raise AlgebraError(f"unknown symbol {term.op!r}")


def embed(el: FreeElement) -> Term:
    """A term whose normal form is the given element."""
    if isinstance(el, Zero):
        return App("0", ())
    if isinstance(el, Word):
        t: Term = Var(el.gen)
        for c in reversed(el.letters):
            t = App(c, (t,))
        return t
    return App("t", (embed(el.u), embed(el.v), embed(el.w)))


def subst_hom(
    ctx: FreeTermContext, images: Sequence[FreeElement]
) -> Callable[[FreeElement], FreeElement]:
    """The endomorphism sending generator k to images[k], on normal forms."""
    if len(images) != ctx.num_gens:
        raise AlgebraError("one image per generator is required")

    def apply(el: FreeElement) -> FreeElement:
        if isinstance(el, Zero):
            return ZERO
        if isinstance(el, Word):
            if el.gen >= ctx.num_gens:
                raise AlgebraError(f"generator {el.gen} outside the context")
            return apply_word(el.letters, images[el.gen])
        return make_tag(ctx, apply(el.u), apply(el.v), apply(el.w))

    return apply


# -- the schema-instance oracle ---------------------------------------------
#
# Instead of the derived predicates, decide a word-triple's fate by
# enumerating schema instances outright.  Shipping this as a first-class
# artifact lets a predicate bug be caught mechanically.


def _stem_table(words: Sequence[Word]) -> dict[Word, tuple[frozenset, frozenset]]:
    """Each word's stems (its suffixes) and split instances (p s, q s)."""
    table = {}
    for word in words:
        stems = frozenset(Word(word.letters[i:], word.gen) for i in range(len(word.letters) + 1))
        table[word] = stems, frozenset((s.prepend("p"), s.prepend("q")) for s in stems)
    return table


def _collapses(rule: CollapseRule, u: Word, v: Word, w: Word, table: dict) -> bool:
    """The schema-instance search on t(u, v, w), reading stems from ``table``."""
    (u_stems, _), (v_stems, v_splits), (w_stems, _) = table[u], table[v], table[w]
    if rule is CollapseRule.TWO_GENERATED:
        # t(a(x,y), b(x,y), c(x,y)) = 0: search two stems covering all three
        for e, f in itertools.combinations_with_replacement(u_stems | v_stems | w_stems, 2):
            if all(e in stems or f in stems for stems in (u_stems, v_stems, w_stems)):
                return True
        return False
    # t(U, p V, q V) = 0: V runs over v's stems; t(a(V, W), V, W) = 0:
    # word-valued binary terms are m*V or m*W, so V or W is a stem of U
    return (v, w) in v_splits or v in u_stems or w in u_stems


def collapses_by_schema_instances(rule: CollapseRule, u: Word, v: Word, w: Word) -> bool:
    """Whether some substitution instance of the variety's schema kills
    t(u, v, w), found by exhaustive search over candidate stems."""
    return _collapses(rule, u, v, w, _stem_table((u, v, w)))


def _bounded_words(depth: int, num_gens: int) -> list[Word]:
    """Every word of length <= ``depth`` on each of ``num_gens`` generators,
    by length, then letters, then generator."""
    return [Word("".join(ls), g) for n in range(depth + 1)
            for ls in itertools.product("pq", repeat=n) for g in range(num_gens)]


def survival_oracle_agreement(
    rule: CollapseRule,
    length_bound: int,
    num_gens: int,
) -> tuple[int, list[tuple[Word, Word, Word]]]:
    """Exhaustively compare predicate and oracle on bounded word triples.

    Returns (number of triples checked, disagreements).  The sweep covers
    every triple of words of length <= length_bound over the given
    generators; terms with 0 or nested t arguments collapse identically
    on both routes and are covered by the unit tests.
    """
    if length_bound < 0 or num_gens < 1:
        raise AlgebraError("the sweep needs a word length >= 0 and at least one generator")
    words = _bounded_words(length_bound, num_gens)
    table = _stem_table(words)
    disagreements = []
    for u, v, w in itertools.product(words, repeat=3):
        if tag_survives(rule, u, v, w) != (not _collapses(rule, u, v, w, table)):
            disagreements.append((u, v, w))
    return len(words) ** 3, disagreements


# -- freeness experiments -----------------------------------------------------


@dataclass
class FreePairCertificate:
    rule: CollapseRule
    depth: int
    word_triples_checked: int
    collisions: int          # coincidences among bounded words of px, qx
    failures: list


def verify_free_pair(rule: CollapseRule, depth: int) -> FreePairCertificate:
    """Check that px and qx generate a free subalgebra, to a bounded depth.

    Every relation of bounded depth that holds between px and qx in the
    one-generator free algebra must already hold between two independent
    generators.  Word relations are ruled out by injectivity of the word
    translation; tag relations are checked triple by triple.  Each bounded
    word's image under x0 -> px, x1 -> qx is computed once, and the triple
    sweep reads ``tag_survives`` on the stored images: every image is a
    pure word, so the predicate is the tag's value.
    """
    if depth < 0:
        raise AlgebraError("depth must be a natural number")
    px, qx = Word("p", 0), Word("q", 0)
    imaged = [(word, apply_word(word.letters, (px, qx)[word.gen]))
              for word in _bounded_words(depth, 2)]
    # no two distinct bounded words over (px, qx) may fall together
    seen = {}
    collisions = 0
    for word, image in imaged:
        if image in seen and seen[image] != word:
            collisions += 1
        seen.setdefault(image, word)

    failures = []
    for (u, iu), (v, iv), (w, iw) in itertools.product(imaged, repeat=3):
        if not tag_survives(rule, iu, iv, iw) and tag_survives(rule, u, v, w):
            failures.append((u, v, w))
    return FreePairCertificate(rule, depth, len(imaged) ** 3, collisions, failures)


@dataclass
class NoFreeTripleCertificate:
    length_bound: int
    word_triples_checked: int
    all_word_triples_vanish: bool
    tag_survives_on_three_generators: bool

    @property
    def conclusive(self) -> bool:
        return self.all_word_triples_vanish and self.tag_survives_on_three_generators


def no_free_triple_bounded(length_bound: int) -> NoFreeTripleCertificate:
    """Certificate that no bounded word triple over one generator is free
    under the two-generated collapse rule.

    Word triples over a single generator always satisfy t(u,v,w) = 0,
    while t on three independent generators survives; elements that are
    Zero or tags are excluded as free generators outright since p sends
    them to 0.  The certificate records both facts.
    """
    if length_bound < 1:
        raise AlgebraError("length bound must be at least 1")
    three = FreeTermContext(CollapseRule.TWO_GENERATED, 3)
    words = _bounded_words(length_bound, 1)
    all_vanish = not any(tag_survives(CollapseRule.TWO_GENERATED, u, v, w)
                         for u, v, w in itertools.product(words, repeat=3))
    survives = isinstance(
        normal_form(three, App("t", (Var(0), Var(1), Var(2)))), Tag
    )
    return NoFreeTripleCertificate(length_bound, len(words) ** 3, all_vanish, survives)


# -- the three-step witness map -----------------------------------------------


def pair_hom(
    ctx: FreeTermContext, image_p: FreeElement, image_q: FreeElement
) -> Callable[[FreeElement], FreeElement]:
    """Homomorphism on the subalgebra generated by px and qx, determined by
    the images of those two generators.

    Elements are decomposed against the last applied letter: a word ending
    in p is m*(px), one ending in q is m*(qx); the bare generator is not in
    the subalgebra.
    """

    def apply(el: FreeElement) -> FreeElement:
        if isinstance(el, Zero):
            return ZERO
        if isinstance(el, Word):
            if not el.letters:
                raise AlgebraError("the bare generator is outside <px, qx>")
            head, last = el.letters[:-1], el.letters[-1]
            return apply_word(head, image_p if last == "p" else image_q)
        return make_tag(ctx, apply(el.u), apply(el.v), apply(el.w))

    return apply


@dataclass
class TripleWitness:
    images: tuple[FreeElement, FreeElement, FreeElement]
    expected: tuple[FreeElement, FreeElement, FreeElement]

    @property
    def ok(self) -> bool:
        return self.images == self.expected


def witness_triple_hom(a: str, b: str, c: str) -> TripleWitness:
    """Compose the three substitution maps of the stem-split context that
    send (px, pqx, pqqx) to (a x, b x, c x), and verify the images.

    A mismatch would falsify the construction, so it raises.
    """
    ctx = FreeTermContext(CollapseRule.STEM_SPLIT, 1)
    x = Word("", 0)
    f = pair_hom(ctx, Word(a + "qq", 0), x)
    g = pair_hom(ctx, Word(b + "q", 0), x)
    h = pair_hom(ctx, Word(c, 0), x)
    start = (Word("p", 0), Word("pq", 0), Word("pqq", 0))
    images = tuple(h(g(f(el))) for el in start)
    expected = (Word(a, 0), Word(b, 0), Word(c, 0))
    witness = TripleWitness(images, expected)
    if not witness.ok:
        raise AlgebraError(
            f"witness composite produced {images}, expected {expected}"
        )
    return witness


# -- term syntax ---------------------------------------------------------------

_GENERATOR_NAMES = ("x", "y", "z")


def parse_free_term(text: str) -> Term:
    """Parse ``t(p x, p q x, q q x)`` style terms; 0 is the constant.

    Unary application is whitespace separated; generators are x, y, z.
    """
    text = text.strip()
    if not text:
        raise AlgebraError("empty term")
    if text == "0":
        return App("0", ())
    if text.startswith("t(") and text.endswith(")"):
        inner = text[2:-1]
        depth = 0
        parts = [""]
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("")
            else:
                parts[-1] += ch
        if len(parts) != 3:
            raise AlgebraError("'t' takes exactly three arguments")
        return App("t", tuple(parse_free_term(p) for p in parts))
    tokens = text.split()
    if tokens[-1] not in _GENERATOR_NAMES:
        raise AlgebraError(f"expected a generator at the end of {text!r}")
    term: Term = Var(_GENERATOR_NAMES.index(tokens[-1]))
    for tok in reversed(tokens[:-1]):
        if tok not in ("p", "q"):
            raise AlgebraError(f"unexpected token {tok!r}")
        term = App(tok, (term,))
    return term


def format_free_element(el: FreeElement) -> str:
    if isinstance(el, Zero):
        return "0"
    if isinstance(el, Word):
        if el.gen >= len(_GENERATOR_NAMES):
            raise AlgebraError(f"generator {el.gen} has no name beyond x, y, z")
        body = " ".join(el.letters) + " " if el.letters else ""
        return f"{body}{_GENERATOR_NAMES[el.gen]}"
    return (
        f"t({format_free_element(el.u)}, "
        f"{format_free_element(el.v)}, {format_free_element(el.w)})"
    )
