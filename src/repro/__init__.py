"""repro: Reasoning on Web Data — Algorithms and Performance.

A from-scratch reproduction of the RDF reasoning platform surveyed in
Bursztyn, Goasdoue, Manolescu, Roatis, "Reasoning on Web Data:
Algorithms and Performance" (ICDE 2015): saturation-based and
reformulation-based query answering over RDF graphs with RDFS
semantics, incremental saturation maintenance (DRed and counting),
a SPARQL BGP engine, a Datalog substrate with magic sets, LUBM-style
workloads, and the saturation-threshold analysis of the paper's
Figure 3.

Quickstart::

    from repro import RDFDatabase, Strategy

    db = RDFDatabase(strategy=Strategy.REFORMULATION)
    db.load_turtle('''
        @prefix ex: <http://example.org/> .
        ex:hasFriend rdfs:domain ex:Person .
        ex:Anne ex:hasFriend ex:Marie .
    ''')
    for row in db.query("SELECT ?x WHERE { ?x a <http://example.org/Person> }"):
        print(row)
"""

from .db import (RDFDatabase, Strategy, StrategyAdvice, UnsupportedGraphError,
                 WorkloadProfile, recommend_strategy)
from .obs import (MetricsRegistry, Tracer, get_metrics, get_tracer,
                  measurement_window, observability_report, render_report,
                  report_to_json, span, write_report)
from .rdf import (BlankNode, Graph, Literal, Namespace, NamespaceManager,
                  RDF, RDFS, OWL, XSD, Triple, TriplePattern, URI, Variable,
                  graph_from_ntriples, graph_from_turtle, parse_ntriples,
                  parse_turtle, serialize_ntriples, serialize_turtle)
from .reasoning import (CountingReasoner, CyclicSchemaError, DRedReasoner,
                        RDFS_DEFAULT, RDFS_FULL, RDFS_PLUS, RHO_DF,
                        Reformulation, Rule, RuleSet, SaturationResult,
                        entails, get_ruleset, reformulate, saturate,
                        saturation_of)
from .schema import Schema, validate_schema
from .sparql import (BGPQuery, ResultSet, evaluate, evaluate_reformulation,
                     parse_query)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # rdf
    "URI", "Literal", "BlankNode", "Variable", "Triple", "TriplePattern",
    "Graph", "Namespace", "NamespaceManager", "RDF", "RDFS", "XSD", "OWL",
    "parse_turtle", "graph_from_turtle", "serialize_turtle",
    "parse_ntriples", "graph_from_ntriples", "serialize_ntriples",
    # schema
    "Schema", "validate_schema",
    # reasoning
    "Rule", "RuleSet", "RHO_DF", "RDFS_DEFAULT", "RDFS_FULL", "RDFS_PLUS",
    "get_ruleset", "saturate", "saturation_of", "SaturationResult",
    "entails", "DRedReasoner", "CountingReasoner", "CyclicSchemaError",
    "Reformulation", "reformulate",
    # sparql
    "BGPQuery", "ResultSet", "parse_query", "evaluate",
    "evaluate_reformulation",
    # db
    "RDFDatabase", "Strategy", "UnsupportedGraphError",
    "WorkloadProfile", "StrategyAdvice", "recommend_strategy",
    # obs
    "MetricsRegistry", "Tracer", "get_metrics", "get_tracer", "span",
    "measurement_window", "observability_report", "report_to_json",
    "render_report", "write_report",
]
