"""The public surface, pinned: each module's public names and the parameter
names of each public function, class constructor and method.  A removed
name or a new option changes ``public_surface()`` and fails here, so it
shows up as a reviewed edit of ``SURFACE``.  Each module is also checked
for a top-level import it never uses, as the project runs no linter, and
every public function or class needs a caller outside the tests unless
``TEST_ONLY`` names it with the reason it stays; ``TEST_ONLY_METHODS`` does
the same for the public methods and properties of public classes.

Print the current surface with ``python tests/test_surface.py``.
"""

import ast
import enum
import importlib
import inspect
import pathlib
import pkgutil
import pprint

import prevar


def _params(fn) -> str:
    stars = {inspect.Parameter.VAR_POSITIONAL: "*", inspect.Parameter.VAR_KEYWORD: "**"}
    params = inspect.signature(fn).parameters.values()
    return "(" + ", ".join(stars.get(p.kind, "") + p.name for p in params) + ")"


def _describe(obj) -> str:
    """A function's parameters; a class's constructor parameters, read from
    the first ``__init__`` written in this package ("(...)" when it inherits
    a builtin one) or its members for an enum; "" for any other value."""
    if inspect.isfunction(obj):
        return _params(obj)
    if not inspect.isclass(obj):
        return ""
    if issubclass(obj, enum.Enum):
        return "members: " + ", ".join(obj.__members__)
    for k in obj.__mro__:
        if k.__module__.startswith("prevar") and "__init__" in vars(k):
            return _params(vars(k)["__init__"]).replace("(self, ", "(").replace("(self)", "()")
    return "(...)"


def _defined_names(module) -> list[str]:
    """The public names a module binds at its top level, imports aside."""
    tree = ast.parse(inspect.getsource(module))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def public_surface() -> dict[str, str]:
    """``module.name`` -> ``_describe`` of each public name, with a class's
    public attributes under ``module.Class.name``; ``prevar.__all__`` is
    listed as one entry."""
    surface = {"prevar.__all__": ", ".join(sorted(prevar.__all__))}
    for info in pkgutil.iter_modules(prevar.__path__):
        module = importlib.import_module(f"prevar.{info.name}")
        for name in _defined_names(module):
            obj, qual = getattr(module, name), f"{module.__name__}.{name}"
            surface[qual] = _describe(obj)
            if inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_"):
                        surface[f"{qual}.{attr}"] = _describe(getattr(member, "__func__", member))
    return surface


SURFACE = {
    "prevar.__all__": "AlgebraError, App, Budget, BudgetExceededError, Congruence, "
                      "CoproductResult, FiniteAlgebra, Homomorphism, MembershipError, "
                      "PrevarietyCtx, QuasiIdentity, Signature, Var, algcore, all_congruences, "
                      "chain_independence, check_amalgamation_bounded, congruence_generated, "
                      "constants_si_census, coproduct, cyclic_unary, direct_product, "
                      "disjoint_union, empty_algebra, eval_term, find_homomorphisms, "
                      "free_algebra, generated_subalgebra, "
                      "has_trivial_subalgebra, homsearch, in_sp, is_comfortable, is_compatible, "
                      "is_coproduct, is_independent, is_p_subdirectly_irreducible, "
                      "is_subdirectly_irreducible, minimum_compatible_cover, "
                      "parse_quasi_identity, prevariety, quasi_identity_holds, quotient, "
                      "sp, sp_embedding, subfamily_independence_check, "
                      "trivial_algebra",
    "prevar.algcore.AlgebraError": "(...)",
    "prevar.algcore.App": "(op, args)",
    "prevar.algcore.Budget": "(max_nodes, max_index, max_carrier, max_table_cells, "
                             "max_enumeration, max_congruence_size, max_congruences, max_rules, "
                             "max_word_len)",
    "prevar.algcore.Budget.max_carrier": "",
    "prevar.algcore.Budget.max_congruence_size": "",
    "prevar.algcore.Budget.max_congruences": "",
    "prevar.algcore.Budget.max_enumeration": "",
    "prevar.algcore.Budget.max_index": "",
    "prevar.algcore.Budget.max_nodes": "",
    "prevar.algcore.Budget.max_rules": "",
    "prevar.algcore.Budget.max_table_cells": "",
    "prevar.algcore.Budget.max_word_len": "",
    "prevar.algcore.BudgetExceededError": "(...)",
    "prevar.algcore.Congruence": "(algebra, blocks)",
    "prevar.algcore.Congruence.diagonal": "(cls, alg)",
    "prevar.algcore.Congruence.full": "(cls, alg)",
    "prevar.algcore.Congruence.is_diagonal": "(self)",
    "prevar.algcore.Congruence.join": "(self, other)",
    "prevar.algcore.Congruence.meet": "(self, other)",
    "prevar.algcore.Congruence.num_blocks": "(self)",
    "prevar.algcore.Congruence.related": "(self, a, b)",
    "prevar.algcore.DEFAULT_BUDGET": "",
    "prevar.algcore.FiniteAlgebra": "(signature, size, tables)",
    "prevar.algcore.FiniteAlgebra.from_json": "(cls, text)",
    "prevar.algcore.FiniteAlgebra.load": "(cls, path)",
    "prevar.algcore.FiniteAlgebra.op": "(self, name, *args)",
    "prevar.algcore.FiniteAlgebra.save": "(self, path)",
    "prevar.algcore.FiniteAlgebra.signature": "",
    "prevar.algcore.FiniteAlgebra.size": "",
    "prevar.algcore.FiniteAlgebra.tables": "",
    "prevar.algcore.FiniteAlgebra.to_json": "(self)",
    "prevar.algcore.Homomorphism": "(source, target, mapping)",
    "prevar.algcore.Homomorphism.compose": "(self, inner)",
    "prevar.algcore.Homomorphism.is_injective": "(self)",
    "prevar.algcore.Signature": "(ops)",
    "prevar.algcore.Signature.all_unary": "(self)",
    "prevar.algcore.Signature.arity": "(self, name)",
    "prevar.algcore.Signature.has_zeroary": "(self)",
    "prevar.algcore.Signature.names": "",
    "prevar.algcore.Term": "",
    "prevar.algcore.UNARY_SIGNATURE": "",
    "prevar.algcore.Var": "(index)",
    "prevar.algcore.all_congruences": "(alg, budget)",
    "prevar.algcore.apply_relabeling": "(alg, perm)",
    "prevar.algcore.are_isomorphic": "(a, b)",
    "prevar.algcore.canonical_form": "(alg)",
    "prevar.algcore.congruence_generated": "(alg, pairs)",
    "prevar.algcore.cyclic_unary": "(d)",
    "prevar.algcore.direct_product": "(algebras, signature)",
    "prevar.algcore.disjoint_union": "(algebras)",
    "prevar.algcore.empty_algebra": "(signature)",
    "prevar.algcore.eval_term": "(alg, t, assignment)",
    "prevar.algcore.find_isomorphism": "(a, b)",
    "prevar.algcore.generated_subalgebra": "(alg, seed)",
    "prevar.algcore.is_subdirectly_irreducible": "(alg, budget)",
    "prevar.algcore.quotient": "(alg, c)",
    "prevar.algcore.subalgebra_on": "(alg, carrier)",
    "prevar.algcore.trivial_algebra": "(signature)",
    "prevar.amalgam.AmalgamCtx": "(factors, base, embeddings)",
    "prevar.amalgam.AmalgamElement": "(reps, tail)",
    "prevar.amalgam.AmalgamElement.length": "(self)",
    "prevar.amalgam.CosetWitness": "(image, witness, order)",
    "prevar.amalgam.FiniteGroup": "(alg)",
    "prevar.amalgam.FiniteGroup.alg": "",
    "prevar.amalgam.FiniteGroup.identity": "",
    "prevar.amalgam.FiniteGroup.inv": "(self, x)",
    "prevar.amalgam.FiniteGroup.mul": "(self, x, y)",
    "prevar.amalgam.FiniteGroup.order_of": "(self, x)",
    "prevar.amalgam.FiniteGroup.size": "",
    "prevar.amalgam.GROUP_SIGNATURE": "",
    "prevar.amalgam.StabilizerSurvey": "(n, witnesses)",
    "prevar.amalgam.StabilizerSurvey.all_cosets_have_involutions": "",
    "prevar.amalgam.alternating_strings": "(ctx, length)",
    "prevar.amalgam.coset_torsion_scan": "(ctx, string)",
    "prevar.amalgam.cyclically_reduce": "(ctx, el)",
    "prevar.amalgam.identity_element": "(ctx)",
    "prevar.amalgam.inverse": "(ctx, el)",
    "prevar.amalgam.is_torsion": "(ctx, el)",
    "prevar.amalgam.multiply": "(ctx, e1, e2)",
    "prevar.amalgam.normal_form": "(ctx, word)",
    "prevar.amalgam.point_stabilizer": "(group, perms, point)",
    "prevar.amalgam.power": "(ctx, el, k)",
    "prevar.amalgam.stabilizer_coset_survey": "(n)",
    "prevar.amalgam.subgroup": "(group, members)",
    "prevar.amalgam.sym_stab_amalgam": "(n)",
    "prevar.amalgam.symmetric_group": "(n)",
    "prevar.amalgam.to_word": "(ctx, el)",
    "prevar.cli.EXIT_BUDGET": "",
    "prevar.cli.EXIT_OK": "",
    "prevar.cli.EXIT_REFUTED": "",
    "prevar.cli.EXIT_USAGE": "",
    "prevar.cli.SUITES": "",
    "prevar.cli.build_parser": "",
    "prevar.cli.main": "(argv)",
    "prevar.freeness.CollapseRule": "members: TWO_GENERATED, STEM_SPLIT",
    "prevar.freeness.FreeElement": "",
    "prevar.freeness.FreePairCertificate": "(rule, depth, word_triples_checked, collisions, "
                                           "failures)",
    "prevar.freeness.FreeTermContext": "(rule, num_gens)",
    "prevar.freeness.NoFreeTripleCertificate": "(length_bound, word_triples_checked, "
                                               "all_word_triples_vanish, "
                                               "tag_survives_on_three_generators)",
    "prevar.freeness.NoFreeTripleCertificate.conclusive": "",
    "prevar.freeness.Tag": "(u, v, w)",
    "prevar.freeness.TripleWitness": "(images, expected)",
    "prevar.freeness.TripleWitness.ok": "",
    "prevar.freeness.Word": "(letters, gen)",
    "prevar.freeness.Word.extends": "(self, other)",
    "prevar.freeness.Word.prepend": "(self, letter)",
    "prevar.freeness.ZERO": "",
    "prevar.freeness.Zero": "()",
    "prevar.freeness.apply_letter": "(letter, el)",
    "prevar.freeness.apply_word": "(letters, el)",
    "prevar.freeness.collapses_by_schema_instances": "(rule, u, v, w)",
    "prevar.freeness.embed": "(el)",
    "prevar.freeness.format_free_element": "(el)",
    "prevar.freeness.make_tag": "(ctx, u, v, w)",
    "prevar.freeness.no_free_triple_bounded": "(length_bound)",
    "prevar.freeness.normal_form": "(ctx, term)",
    "prevar.freeness.pair_hom": "(ctx, image_p, image_q)",
    "prevar.freeness.parse_free_term": "(text)",
    "prevar.freeness.subst_hom": "(ctx, images)",
    "prevar.freeness.survival_oracle_agreement": "(rule, length_bound, num_gens)",
    "prevar.freeness.tag_survives": "(rule, u, v, w)",
    "prevar.freeness.verify_free_pair": "(rule, depth)",
    "prevar.freeness.witness_triple_hom": "(a, b, c)",
    "prevar.homsearch.MembershipError": "(message, witness)",
    "prevar.homsearch.find_homomorphisms": "(source, target, seed, budget, injective)",
    "prevar.homsearch.in_sp": "(a, generators, budget)",
    "prevar.homsearch.separating_family": "(a, generators, budget)",
    "prevar.homsearch.sp_embedding": "(a, generators, budget)",
    "prevar.prevariety.AmalgamationCounterexample": "(base, left, right, left_embedding, "
                                                    "right_embedding)",
    "prevar.prevariety.ChainHypothesisError": "(index, message)",
    "prevar.prevariety.ChainReport": "(independent, almost_independent, retractions)",
    "prevar.prevariety.ChainReport.ok": "",
    "prevar.prevariety.ConstantsCensus": "(count, algebras, partitions, compatibility)",
    "prevar.prevariety.CoproductResult": "(algebra, coprojections, index_metadata, base_map)",
    "prevar.prevariety.CoproductResult.all_injective": "(self)",
    "prevar.prevariety.CoproductResult.base_map": "",
    "prevar.prevariety.PrevarietyCtx": "(generators)",
    "prevar.prevariety.PrevarietyCtx.contains": "(self, alg, budget)",
    "prevar.prevariety.PrevarietyCtx.require_member": "(self, alg, budget)",
    "prevar.prevariety.PrevarietyCtx.signature": "",
    "prevar.prevariety.QuasiIdentity": "(variables, premises, conclusion)",
    "prevar.prevariety.amalgamated_coproduct": "(ctx, base, arms, budget)",
    "prevar.prevariety.chain_independence": "(a0, chain, components, budget)",
    "prevar.prevariety.check_amalgamation_bounded": "(ctx, max_size, budget, include_empty_base)",
    "prevar.prevariety.constants_si_census": "(kappa)",
    "prevar.prevariety.coproduct": "(ctx, factors, budget)",
    "prevar.prevariety.enumerate_members": "(ctx, max_size, budget)",
    "prevar.prevariety.format_term": "(t, variables)",
    "prevar.prevariety.free_algebra": "(ctx, n, budget)",
    "prevar.prevariety.has_trivial_subalgebra": "(alg)",
    "prevar.prevariety.is_comfortable": "(ctx, a, b, budget)",
    "prevar.prevariety.is_compatible": "(ctx, algebras, budget)",
    "prevar.prevariety.is_coproduct": "(ctx, b, maps, budget)",
    "prevar.prevariety.is_independent": "(ctx, ambient, subalgebras, budget)",
    "prevar.prevariety.is_p_subdirectly_irreducible": "(ctx, alg, budget)",
    "prevar.prevariety.minimum_compatible_cover": "(ctx, algebras, budget)",
    "prevar.prevariety.parse_quasi_identity": "(text, signature)",
    "prevar.prevariety.quasi_identity_holds": "(alg, q)",
    "prevar.prevariety.sp": "(*generators)",
    "prevar.prevariety.subfamily_independence_check": "(ctx, ambient, family, subfamily, budget)",
    "prevar.srs.CompletionResult": "(system, completed, reason)",
    "prevar.srs.CompletionResult.reason": "",
    "prevar.srs.EPSILON": "",
    "prevar.srs.Presentation": "(alphabet, relations)",
    "prevar.srs.RewriteSystem": "(alphabet, rules)",
    "prevar.srs.Word": "",
    "prevar.srs.coproduct_presentation": "(factors, shared)",
    "prevar.srs.critical_pairs": "(rs)",
    "prevar.srs.format_presentation": "(p)",
    "prevar.srs.format_word": "(w)",
    "prevar.srs.knuth_bendix": "(presentation, budget)",
    "prevar.srs.parse_presentation": "(text)",
    "prevar.srs.parse_word": "(text, alphabet)",
    "prevar.srs.reduce": "(rs, word)",
    "prevar.srs.shortlex_key": "(alphabet, w)",
    "prevar.srs.words_equal": "(rs, a, b)",
}


def test_public_surface_is_pinned():
    assert public_surface() == SURFACE


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module binds by a top-level import and never reads."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_keeps_an_unused_import():
    # the package's __init__ imports to re-export, so it is left out
    modules = [p for p in sorted(pathlib.Path(prevar.__file__).parent.glob("*.py"))
               if p.name != "__init__.py"]
    assert modules
    assert {p.name: unused_imports(p) for p in modules} == {p.name: [] for p in modules}


ROOT = pathlib.Path(__file__).resolve().parent.parent

# The public functions and classes that nothing outside the tests calls,
# each with the reason it stays in the package
TEST_ONLY = {
    "congruence_generated": "Cg(X), the reference for the join and lattice tests",
    "eval_term": "the term evaluation the README promises",
    "power": "amalgam arithmetic the README lists",
    "cyclically_reduce": "amalgam arithmetic the README lists",
    "shortlex_key": "the order every rewrite rule decreases",
    "subst_hom": "free-algebra endomorphisms",
    "embed": "the inverse of freeness.normal_form",
    "collapses_by_schema_instances": "the one-triple entry to the schema oracle",
    "format_presentation": "the writer for the documented presentation format, "
                           "and parse_presentation's round-trip oracle",
}

# The public methods and properties that nothing outside the tests calls,
# each with the reason it stays
TEST_ONLY_METHODS = {
    "Congruence.diagonal": "the bottom of the lattice, vocabulary of the lattice oracles",
    "Congruence.full": "the top of the lattice, vocabulary of the lattice oracles",
    "Congruence.is_diagonal": "vocabulary of the lattice oracles",
    "Congruence.related": "membership of a pair, vocabulary of the lattice oracles",
}


def _names_read(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name in ``node``'s code."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.rsplit(".", 1)[-1])
    return read


def _package_and_outside(root: pathlib.Path) -> tuple[list[ast.Module], set[str]]:
    """The parsed modules of ``src/prevar`` (its ``__init__`` aside), and
    every name read in ``bench``, ``demos`` and the acceptance criteria."""
    trees = [ast.parse(p.read_text()) for p in sorted((root / "src/prevar").glob("*.py"))
             if p.name != "__init__.py"]
    outside = [root / "tests/test_acceptance.py", *sorted((root / "bench").glob("*.py")),
               *sorted((root / "demos").glob("*.py"))]
    return trees, set().union(*(_names_read(ast.parse(p.read_text())) for p in outside))


def _uncalled(units: list[ast.AST], candidates, read: set[str]) -> set:
    """The ``candidates`` (a key and a definition among ``units``) whose
    name is read neither in ``read`` nor by any other unit."""
    named = [(unit, _names_read(unit)) for unit in units]
    return {key for key, node in candidates
            if node.name not in read
            and not any(node.name in names for other, names in named if other is not node)}


def _public(node: ast.AST, kinds) -> bool:
    return isinstance(node, kinds) and not node.name.startswith("_")


def uncalled_public_names(root: pathlib.Path) -> set[str]:
    """The top-level public functions and classes of ``src/prevar`` (its
    ``__init__`` aside) that no code reads outside their own definition, in
    the package (re-exports aside), ``bench``, ``demos`` or the acceptance
    criteria."""
    trees, read = _package_and_outside(root)
    statements = [node for tree in trees for node in tree.body]
    candidates = [(node.name, node) for node in statements
                  if _public(node, (ast.FunctionDef, ast.ClassDef))]
    return _uncalled(statements, candidates, read)


def uncalled_public_methods(root: pathlib.Path) -> set[str]:
    """``Class.method`` for each public method or property of a public
    top-level class of ``src/prevar`` whose name no code reads outside the
    method itself, where ``uncalled_public_names`` looks.  The scan goes by
    name alone, so it cannot tell ``Congruence.join`` from ``str.join``: a
    method that shares its name with any attribute read anywhere passes."""
    trees, read = _package_and_outside(root)
    units, candidates = [], []
    for node in (node for tree in trees for node in tree.body):
        if not isinstance(node, ast.ClassDef):
            units.append(node)
            continue
        units += node.body
        if _public(node, ast.ClassDef):
            candidates += [(f"{node.name}.{member.name}", member) for member in node.body
                           if _public(member, ast.FunctionDef)]
    return _uncalled(units, candidates, read)


def test_every_public_name_has_a_caller_or_a_reason():
    assert uncalled_public_names(ROOT) == set(TEST_ONLY)


def test_every_public_method_has_a_caller_or_a_reason():
    assert uncalled_public_methods(ROOT) == set(TEST_ONLY_METHODS)


def test_every_source_file_parses_as_python_3_10():
    # pyproject promises 3.10: a newer form such as ``except*`` fails to parse
    # here on any interpreter that runs the tests
    files = sorted(p for d in ("src/prevar", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


if __name__ == "__main__":
    pprint.pprint(public_surface(), width=100, sort_dicts=True)
