"""Tests for repro.staticcheck: the Datalog text front-end, both
analysis levels, report determinism, and the ``repro lint`` CLI."""

import json
import pathlib
import random

import pytest

from repro.cli import main
from repro.datalog import Database, SemiNaiveEngine
from repro.datalog.text import DatalogSyntaxError, parse_program_text
from repro.rdf import Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import Variable as V
from repro.reasoning import get_ruleset, reformulate
from repro.schema import Schema
from repro.sparql import BGPQuery, parse_query
from repro.staticcheck import (DIAGNOSTIC_CODES, Diagnostic, LintReport,
                               Severity, analyze_program, analyze_ruleset,
                               check_reformulation_blowup, estimate_ucq_size,
                               find_dead_rules, find_subsumed_rules,
                               lint_paths, lint_source, patterns_may_unify,
                               program_dependency_graph, run_lint,
                               rule_dependency_graph)

from conftest import EX

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

X, Y = V("x"), V("y")


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
# the textual Datalog front-end
# ----------------------------------------------------------------------

class TestParser:
    def test_clauses_and_facts(self):
        program = parse_program_text("""
            % transitive closure
            edge(a, b).
            edge(b, c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
        """)
        assert len(program.facts()) == 2
        assert len(program.rules()) == 2
        assert program.idb_predicates() == {"path"}
        assert program.edb_predicates() == {"edge"}

    def test_line_numbers_survive_multiline_clauses(self):
        program = parse_program_text(
            "p(X) :-\n    q(X),\n    r(X).\n")
        (clause,) = program.clauses
        assert clause.line == 1
        assert [lit.atom.predicate for lit in clause.body] == ["q", "r"]

    def test_negation_both_spellings(self):
        program = parse_program_text(
            "p(X) :- q(X), not r(X).\np2(X) :- q(X), !r(X).\n")
        flags = [[lit.negated for lit in clause.body]
                 for clause in program.clauses]
        assert flags == [[False, True], [False, True]]

    def test_edb_directive(self):
        program = parse_program_text(".edb edge/2\np(X) :- edge(X, X).\n")
        assert program.edb == {"edge": 2}
        assert program.edb_predicates() == {"edge"}

    def test_syntax_error_carries_line(self):
        with pytest.raises(DatalogSyntaxError) as info:
            parse_program_text("p(X) :- q(X).\nthis is not datalog\n")
        assert info.value.line == 2

    def test_missing_terminator_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program_text("p(X) :- q(X)")

    def test_to_program_evaluates(self):
        program = parse_program_text("""
            edge(a, b). edge(b, c).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
        """)
        datalog, facts = program.to_program()
        database = Database()
        for fact in facts:
            database.add_atom(fact)
        SemiNaiveEngine(datalog).evaluate(database)
        assert ("path", ("a", "c")) in database

    def test_to_program_rejects_negation(self):
        program = parse_program_text(
            ".edb q/1\n.edb r/1\np(X) :- q(X), not r(X).\n")
        with pytest.raises(ValueError):
            program.to_program()


# ----------------------------------------------------------------------
# dependency graphs
# ----------------------------------------------------------------------

class TestDependencyGraphs:
    def test_predicate_cycles_and_strata(self):
        program = parse_program_text("""
            .edb edge/2
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            unreached(X) :- node(X), not path(root, X).
            .edb node/1
        """)
        graph = program_dependency_graph(program)
        assert graph.cycles() == [frozenset({"path"})]
        strata = graph.stratify()
        assert strata is not None
        assert strata["unreached"] > strata["path"]

    def test_negation_in_cycle_has_no_stratification(self):
        program = parse_program_text(
            ".edb move/2\nwin(X) :- move(X, Y), not win(Y).\n")
        graph = program_dependency_graph(program)
        assert graph.stratify() is None
        assert graph.unstratifiable_cycles() == [frozenset({"win"})]

    def test_rule_graph_rdfs_default_is_one_clique(self):
        graph = rule_dependency_graph(list(get_ruleset("rdfs-default")))
        (clique,) = graph.cycles()
        assert clique == frozenset({"rdfs2", "rdfs3", "rdfs5", "rdfs7",
                                    "rdfs9", "rdfs11"})

    def test_patterns_may_unify(self):
        assert patterns_may_unify(TP(X, RDF.type, EX.C),
                                  TP(V("a"), RDF.type, V("b")))
        assert not patterns_may_unify(TP(X, RDF.type, EX.C),
                                      TP(X, RDFS.subClassOf, Y))


# ----------------------------------------------------------------------
# Level 1 over the fixture corpus
# ----------------------------------------------------------------------

def analyze_fixture(name):
    path = FIXTURES / name
    program = parse_program_text(path.read_text(), source=str(path))
    return analyze_program(program, file=str(path))


class TestProgramAnalysis:
    def test_unsafe_fixture(self):
        findings = analyze_fixture("unsafe.dlg")
        unsafe = [d for d in findings if d.code == "SC101"]
        assert len(unsafe) == 2
        assert all(d.severity is Severity.ERROR for d in unsafe)
        # one flags the head variable, one the negated-literal variable
        assert any("Y" in d.message for d in unsafe)
        assert any("Z" in d.message for d in unsafe)

    def test_unstratifiable_fixture(self):
        findings = analyze_fixture("unstratifiable.dlg")
        codes = set(codes_of(findings))
        assert {"SC103", "SC107", "SC102"} <= codes
        (unstrat,) = [d for d in findings if d.code == "SC103"]
        assert unstrat.severity is Severity.ERROR
        assert "win" in unstrat.message
        # the benign reach-clique is info, not an error
        cliques = [d for d in findings if d.code == "SC102"]
        assert all(d.severity is Severity.INFO for d in cliques)
        assert any("reach" in d.message for d in cliques)

    def test_dead_rule_fixture(self):
        findings = analyze_fixture("dead_rule.dlg")
        (dead,) = [d for d in findings if d.code == "SC104"]
        assert "ghost" in dead.message
        assert dead.target == "orphan"
        # the live adult/person clause is not flagged
        assert all("adult" != d.target for d in findings)

    def test_duplicate_fixture(self):
        findings = analyze_fixture("duplicate.dlg")
        (dup,) = [d for d in findings if d.code == "SC108"]
        assert dup.line == 4  # the renamed copy, not the original

    def test_clean_program_is_clean(self):
        program = parse_program_text(
            ".edb edge/2\nconnected(X, Y) :- edge(X, Y).\n")
        assert analyze_program(program) == []


# ----------------------------------------------------------------------
# Level 1 over entailment rule sets
# ----------------------------------------------------------------------

class TestRulesetAnalysis:
    def test_rdfs_default_has_no_redundancy(self):
        assert find_subsumed_rules(get_ruleset("rdfs-default")) == []

    def test_rdfs_plus_sameas_transitivity_is_subsumed(self):
        # owl-same-o derives (s p y) from p=owl:sameAs just as
        # owl-same-trans does — found by this very pass.
        pairs = {(a.name, b.name)
                 for a, b in find_subsumed_rules(get_ruleset("rdfs-plus"))}
        assert ("owl-same-trans", "owl-same-o") in pairs

    def test_dead_rules_against_subclass_only_schema(self):
        schema = Schema()
        schema.add(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
        dead = {rule.name for rule, _missing
                in find_dead_rules(get_ruleset("rdfs-default"), schema)}
        # no subPropertyOf/domain/range constraints: rdfs5/7/2/3 dead,
        # the subclass rules live
        assert dead == {"rdfs2", "rdfs3", "rdfs5", "rdfs7"}

    def test_no_rules_dead_under_full_schema(self, paper_graph):
        # the paper's example lacks subPropertyOf constraints, so the
        # subproperty rules are dead there; add one and all rules live
        paper_graph.add(Triple(EX.hasBestFriend, RDFS.subPropertyOf,
                               EX.hasFriend))
        schema = Schema.from_graph(paper_graph)
        assert find_dead_rules(get_ruleset("rdfs-default"), schema) == []

    def test_subproperty_rules_dead_without_sp_constraints(self, paper_graph):
        schema = Schema.from_graph(paper_graph)
        dead = {rule.name for rule, _missing
                in find_dead_rules(get_ruleset("rdfs-default"), schema)}
        assert dead == {"rdfs5", "rdfs7"}

    def test_analyze_ruleset_reports_the_clique(self):
        findings = analyze_ruleset(get_ruleset("rdfs-default"))
        (clique,) = [d for d in findings if d.code == "SC102"]
        assert "rdfs9" in clique.message


# ----------------------------------------------------------------------
# the reformulation blow-up estimator
# ----------------------------------------------------------------------

class TestBlowupEstimator:
    QUERIES = [
        "SELECT ?x WHERE { ?x a univ:Person }",
        "SELECT ?x WHERE { ?x a univ:Professor }",
        "SELECT ?x ?y WHERE { ?x univ:memberOf ?y }",
        "SELECT ?x ?y WHERE { ?x a univ:Student . ?x univ:takesCourse ?y }",
        "SELECT ?x ?p WHERE { ?x ?p univ:Dept0 }",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_estimate_matches_reformulate_exactly(self, lubm_small, text):
        schema = Schema.from_graph(lubm_small)
        query = parse_query(text, lubm_small.namespaces)
        assert estimate_ucq_size(query, schema) == \
            reformulate(query, schema).ucq_size

    def test_estimate_on_paper_example(self, paper_graph):
        schema = Schema.from_graph(paper_graph)
        query = BGPQuery([TP(X, RDF.type, EX.Mammal)], [X])
        assert estimate_ucq_size(query, schema) == \
            reformulate(query, schema).ucq_size == 2

    def test_budget_splits_warning_from_info(self, lubm_small):
        schema = Schema.from_graph(lubm_small)
        query = parse_query("SELECT ?x WHERE { ?x a univ:Person }",
                            lubm_small.namespaces)
        size = estimate_ucq_size(query, schema)
        assert size > 1
        (over,) = check_reformulation_blowup(query, schema, budget=size - 1)
        assert (over.code, over.severity) == ("SC106", Severity.WARNING)
        (under,) = check_reformulation_blowup(query, schema, budget=size)
        assert under.severity is Severity.INFO


# ----------------------------------------------------------------------
# Level 2: engine-invariant lint
# ----------------------------------------------------------------------

class TestEngineLint:
    def test_mutating_scan_fixture(self):
        findings = lint_paths([str(FIXTURES / "mutating_scan.py")])
        assert codes_of(findings) == ["SC201", "SC201", "SC201"]
        messages = " ".join(d.message for d in findings)
        assert ".add()" in messages and ".remove()" in messages
        # the flagged collections are the scanned ones; the safe
        # functions contribute nothing (third hit: the while-loop
        # advancing a name-bound cursor)
        assert sorted(d.target for d in findings) == ["graph", "graph",
                                                      "relation"]

    def test_timing_and_slots_fixture(self):
        source = (FIXTURES / "timing_and_slots.py").read_text()
        # lint under a hot-path module name so the slots rule applies
        findings = lint_source(source, "repro/datalog/engine.py")
        slots = [d for d in findings if d.code == "SC202"]
        assert [d.target for d in slots] == ["SlotlessThing"]
        timing = [d for d in findings if d.code == "SC203"]
        assert sorted(d.target for d in timing) == ["pc", "time.perf_counter"]

    def test_exception_classes_exempt_from_slots(self):
        findings = lint_source("class MyError(ValueError):\n    pass\n",
                               "repro/rdf/graph.py")
        assert findings == []

    def test_non_hot_path_module_skips_slots(self):
        findings = lint_source("class Plain:\n    pass\n",
                               "repro/workloads/lubm.py")
        assert findings == []

    def test_materialized_scan_not_flagged(self):
        source = ("def f(g, p):\n"
                  "    for t in list(g.match(p)):\n"
                  "        g.add(t)\n")
        assert lint_source(source, "x.py") == []

    def test_delegated_scan_flagged(self):
        # rule.fire_conclusions(g, delta) holds a live scan of g, not
        # of `rule` — the exact shape behind the PR 6 propagation bug
        source = ("def f(self, delta):\n"
                  "    for rule in self.ruleset:\n"
                  "        for c in rule.fire_conclusions(self.graph, delta):\n"
                  "            self.graph.add(c)\n")
        findings = lint_source(source, "x.py")
        assert codes_of(findings) == ["SC201"]
        assert findings[0].target == "self.graph"

    def test_delegated_scan_materialized_not_flagged(self):
        source = ("def f(self, delta):\n"
                  "    for rule in self.ruleset:\n"
                  "        for c in list(rule.fire(self.graph, delta)):\n"
                  "            self.graph.add(c)\n")
        assert lint_source(source, "x.py") == []

    def test_own_source_tree_is_clean(self):
        # the repository must satisfy its own invariants
        assert lint_paths([str(SRC)]) == []


# ----------------------------------------------------------------------
# diagnostics and report determinism
# ----------------------------------------------------------------------

class TestReport:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("SC999", Severity.ERROR, "nope")

    def test_exit_code_follows_severity(self):
        report = LintReport([Diagnostic("SC105", Severity.WARNING, "w")])
        assert report.exit_code() == 0
        report.extend([Diagnostic("SC101", Severity.ERROR, "e")])
        assert report.exit_code() == 1

    def test_json_is_byte_stable_across_runs(self):
        def one_run():
            return run_lint(
                paths=[str(FIXTURES)],
                rulesets=[get_ruleset("rdfs-default")]).to_json()

        first, second = one_run(), one_run()
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "repro-lint-report/2"
        assert payload["summary"]["total"] == len(payload["diagnostics"])

    def test_sorted_order_is_input_order_independent(self):
        report = run_lint(paths=[str(FIXTURES)])
        shuffled = list(report.diagnostics)
        random.Random(7).shuffle(shuffled)
        assert LintReport(shuffled, report.targets).to_json() == \
            report.to_json()

    def test_fixture_corpus_covers_the_program_codes(self):
        report = run_lint(paths=[str(FIXTURES)])
        covered = set(codes_of(report.diagnostics))
        assert {"SC101", "SC102", "SC103", "SC104", "SC107", "SC108",
                "SC201", "SC202", "SC203"} <= covered


# ----------------------------------------------------------------------
# the CLI front door
# ----------------------------------------------------------------------

class TestLintCLI:
    def test_fixture_errors_exit_nonzero(self, capsys):
        status = main(["lint", str(FIXTURES / "unsafe.dlg")])
        assert status == 1
        out = capsys.readouterr().out
        assert "SC101" in out and "error" in out

    def test_self_lint_exits_zero(self, capsys):
        status = main(["lint", str(SRC)])
        assert status == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_output(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status = main(["lint", str(FIXTURES / "dead_rule.dlg"),
                       "--json", "-o", str(target)])
        assert status == 0  # SC104 is a warning, not an error
        payload = json.loads(capsys.readouterr().out)
        assert codes_of_payload(payload) == ["SC104"]
        assert json.loads(target.read_text()) == payload

    def test_ruleset_flag(self, capsys):
        status = main(["lint", "--ruleset", "rdfs-plus"])
        assert status == 0
        assert "SC105" in capsys.readouterr().out

    def test_query_blowup_flag(self, capsys, tmp_path):
        graph = tmp_path / "g.ttl"
        graph.write_text(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:Cat rdfs:subClassOf ex:Mammal .\n")
        status = main([
            "lint", "--graph", str(graph), "--max-ucq", "1",
            "-q", "SELECT ?x WHERE { ?x a ex:Mammal }"])
        assert status == 0
        assert "SC106" in capsys.readouterr().out

    def test_unsupported_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "whatever.ttl"])

    def test_query_without_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "-q", "SELECT ?x WHERE { ?x a ?y }"])


def codes_of_payload(payload):
    return [d["code"] for d in payload["diagnostics"]]


# ----------------------------------------------------------------------
# documentation sync
# ----------------------------------------------------------------------

def test_every_diagnostic_code_is_documented():
    docs = (pathlib.Path(__file__).parent.parent / "docs" / "api.md")
    text = docs.read_text()
    for code in DIAGNOSTIC_CODES:
        assert code in text, f"{code} missing from docs/api.md"


def test_readme_shows_the_lint_command():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    assert "repro lint" in readme.read_text()
