"""Every query and update text the benchmark sends, over the LUBM vocabulary.

A *qid* names one query text: a fixed template (``"Q1"`` … ``"Q10"``,
``"chain3"``, ``"chain4"``, ``"star4"``, ``"dup_project"``) or a
parameterised one with its constant (``"point_dept:u0d3"``).  Individuals
are named by index in the generator, so the parameter universe of a scale
follows from its size alone, and every template is non-empty on every
scale by construction.
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

PREFIXES = ("PREFIX univ: <http://repro.example.org/univ#>\n"
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n")

DEPARTMENTS = 16

#: Faculty ranks and graduate students per department: the defaults of
#: ``repro.workloads.LUBMConfig`` (checked against it in ``datasets``).
FACULTY_RANKS = (("FullProfessor", 7), ("AssociateProfessor", 6),
                 ("AssistantProfessor", 5), ("Lecturer", 4))
GRADUATE_STUDENTS = 18

FIXED_TEMPLATES: Dict[str, str] = {
    # Q1-Q10: the workload behind the paper's Fig. 3, spanning
    # reformulation sizes from 1 (Q5) to dozens of conjuncts (Q1)
    "Q1": "SELECT DISTINCT ?x WHERE { ?x a univ:Person }",
    "Q2": "SELECT DISTINCT ?x WHERE { ?x a univ:Student }",
    "Q3": "SELECT DISTINCT ?x ?y WHERE "
          "{ ?x a univ:Professor . ?x univ:teacherOf ?y }",
    "Q4": "SELECT DISTINCT ?x ?y WHERE { ?x univ:memberOf ?y }",
    "Q5": "SELECT DISTINCT ?x WHERE { ?x a univ:FullProfessor }",
    "Q6": "SELECT DISTINCT ?x ?u WHERE { ?x univ:degreeFrom ?u }",
    "Q7": "SELECT DISTINCT ?x ?y WHERE "
          "{ ?x univ:advisor ?y . ?y a univ:Professor }",
    "Q8": "SELECT DISTINCT ?x WHERE { ?x a univ:Organization }",
    "Q9": "SELECT DISTINCT ?x ?y ?u WHERE { ?x univ:memberOf ?y . "
          "?y univ:subOrganizationOf ?u . "
          "?x univ:undergraduateDegreeFrom ?u }",
    "Q10": "SELECT DISTINCT ?x ?y WHERE "
           "{ ?x a univ:Faculty . ?x univ:worksFor ?y }",
    # SP2Bench join shapes: long chains, a star, a duplicate-heavy
    # projection
    "chain3": "SELECT DISTINCT ?s ?u WHERE { ?s univ:advisor ?p . "
              "?p univ:worksFor ?d . ?d univ:subOrganizationOf ?u }",
    "chain4": "SELECT DISTINCT ?c ?u WHERE { ?s univ:takesCourse ?c . "
              "?s univ:advisor ?p . ?p univ:worksFor ?d . "
              "?d univ:subOrganizationOf ?u }",
    "star4": "SELECT DISTINCT ?x ?d ?p ?c WHERE { ?x a univ:Student . "
             "?x univ:memberOf ?d . ?x univ:advisor ?p . "
             "?x univ:takesCourse ?c }",
    "dup_project": "SELECT DISTINCT ?c WHERE "
                   "{ ?a univ:takesCourse ?c . ?b univ:takesCourse ?c }",
}

PARAMETERISED_TEMPLATES: Dict[str, str] = {
    "point_dept": "SELECT DISTINCT ?x WHERE "
                  "{ ?x univ:memberOf univ:Department%s }",
    "point_prof": "SELECT DISTINCT ?c ?s WHERE "
                  "{ univ:%s univ:teacherOf ?c . ?s univ:takesCourse ?c }",
    "point_student": "SELECT DISTINCT ?c ?p WHERE "
                     "{ univ:%s univ:takesCourse ?c . univ:%s univ:advisor ?p }",
    # a variable in the property position: the paper's "blurred
    # constants/relations" rewriting
    "varprop": "SELECT DISTINCT ?p ?o WHERE { univ:Chair%s ?p ?o }",
}

#: The 16 templates of ``query_sat`` / ``query_ref``; the two parameterised
#: ones take a seeded department.
QUERY_TEMPLATES = tuple(FIXED_TEMPLATES) + ("point_dept", "varprop")


def template_of(qid: str) -> str:
    return qid.split(":", 1)[0]


def query_text(qid: str) -> str:
    """The SPARQL text of ``qid``."""
    template, _, constant = qid.partition(":")
    if template in FIXED_TEMPLATES:
        return PREFIXES + FIXED_TEMPLATES[template]
    body = PARAMETERISED_TEMPLATES[template]
    return PREFIXES + body.replace("%s", constant)


def department_ids(universities: int) -> List[str]:
    return [f"u{u}d{d}" for u in range(universities)
            for d in range(DEPARTMENTS)]


def faculty_ids(universities: int) -> List[str]:
    return [f"{rank}{dept}n{i}" for dept in department_ids(universities)
            for rank, count in FACULTY_RANKS for i in range(count)]


def graduate_ids(universities: int) -> List[str]:
    return [f"GraduateStudent{dept}s{i}"
            for dept in department_ids(universities)
            for i in range(GRADUATE_STUDENTS)]


def universe(universities: int, serving: bool = True) -> List[str]:
    """Every qid the benchmark may send at this scale, in a fixed order:
    the oracle answers exactly these.  ``serving=False`` leaves out the
    per-person lookups only the HTTP workloads draw from."""
    depts = department_ids(universities)
    qids = list(FIXED_TEMPLATES)
    qids += [f"point_dept:{d}" for d in depts]
    qids += [f"varprop:{d}" for d in depts]
    if serving:
        qids += [f"point_prof:{p}" for p in faculty_ids(universities)]
        qids += [f"point_student:{s}" for s in graduate_ids(universities)]
    return qids


#: The serving pools draw lookups of these kinds in this fixed rotation
#: (1:1:4:4), so that every seed sends the same number of each kind and
#: seeds differ only in the constants.  The two department-level kinds
#: come first because their answers have the same size for every
#: department: in ``serve_hot`` they take the two most popular ranks,
#: a third of the traffic, which therefore costs the same on every seed.
LOOKUP_MIX = ("point_dept", "varprop", "point_prof", "point_student",
              "point_prof", "point_student", "point_prof", "point_student",
              "point_prof", "point_student")


def lookups_by_kind(universities: int) -> Dict[str, List[str]]:
    """The bound-constant lookups that parameterise the serving pools.
    None of them reads a triple the churn updates write."""
    pools: Dict[str, List[str]] = {kind: [] for kind in set(LOOKUP_MIX)}
    for qid in universe(universities):
        if template_of(qid) in pools:
            pools[template_of(qid)].append(qid)
    return pools


# ----------------------------------------------------------------------
# updates (ground INSERT DATA / DELETE DATA, Fig. 3's four kinds)
# ----------------------------------------------------------------------

def _data(keyword: str, triples: Iterable[str]) -> str:
    return PREFIXES + keyword + " DATA { " + " . ".join(triples) + " }"


def insert_data(triples: Iterable[str]) -> str:
    return _data("INSERT", triples)


def delete_data(triples: Iterable[str]) -> str:
    return _data("DELETE", triples)


def fresh_student_triples(k: int, dept: str) -> List[str]:
    """A 10-triple graduate-student record for a new individual: types,
    membership, advisor and enrolment all fire rules."""
    s = f"univ:BenchStudent{k}"
    return [
        f"{s} a univ:GraduateStudent",
        f"{s} univ:memberOf univ:Department{dept}",
        f"{s} univ:advisor univ:FullProfessor{dept}n1",
        f"{s} univ:takesCourse univ:GraduateCourse{dept}c1",
        f"{s} univ:takesCourse univ:GraduateCourse{dept}c2",
        f"{s} univ:teachingAssistantOf univ:Course{dept}c3",
        f"{s} univ:undergraduateDegreeFrom univ:University{dept[1:dept.index('d')]}",
        f'{s} univ:name "bench student {k}"',
        f'{s} univ:emailAddress "student{k}@bench.example"',
        f'{s} univ:age "23"',
    ]


def fresh_visitor_triples(k: int, university: int) -> List[str]:
    """A 5-triple record the serving pools never read: a visiting
    professor with no department, course or advisee."""
    s = f"univ:BenchVisitor{k}"
    return [
        f"{s} a univ:VisitingProfessor",
        f"{s} univ:doctoralDegreeFrom univ:University{university}",
        f'{s} univ:name "bench visitor {k}"',
        f'{s} univ:emailAddress "visitor{k}@bench.example"',
        f'{s} univ:researchInterest "reasoning"',
    ]


#: New constraints over the existing vocabulary, each inserted and later
#: deleted once per pass of ``update_stream``.  Acyclic, and chosen so
#: that each has instance consequences to derive and to retract.
SCHEMA_UPDATES: Sequence[str] = (
    "univ:teachingAssistantOf rdfs:domain univ:TeachingAssistant",
    "univ:headOf rdfs:domain univ:Chair",
    "univ:Chair rdfs:subClassOf univ:AdministrativeStaff",
    "univ:Lecturer rdfs:subClassOf univ:TeachingStaff",
    "univ:headOf rdfs:subPropertyOf univ:leads",
    "univ:advisor rdfs:subPropertyOf univ:knows",
    "univ:undergraduateDegreeFrom rdfs:range univ:College",
    "univ:GraduateCourse rdfs:subClassOf univ:AdvancedWork",
)


def zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


class Op(NamedTuple):
    """One operation of a pass."""

    kind: str       # latency class: a template name, ``insert``, ``delete``,
                    # ``schema_insert`` or ``schema_delete``
    qid: str        # of a query; empty for an update
    text: str
    triples: int = 0  # of an update's batch


def query_op(qid: str) -> Op:
    return Op(template_of(qid), qid, query_text(qid))


def update_pair(first: str, triples: Sequence[str],
                schema: bool = False) -> Tuple[Op, Op]:
    """An update (``first`` is ``"insert"`` or ``"delete"``) and the
    update that undoes it."""
    prefix = "schema_" if schema else ""
    insert = Op(prefix + "insert", "", insert_data(triples), len(triples))
    delete = Op(prefix + "delete", "", delete_data(triples), len(triples))
    return (insert, delete) if first == "insert" else (delete, insert)


def paired_order(rng, pairs: List[Tuple[Op, Op]]) -> List[Op]:
    """Interleave ``(forward, inverse)`` pairs at random, each inverse
    somewhere after its forward operation."""
    slots = list(range(2 * len(pairs)))
    rng.shuffle(slots)
    ordered: List[Optional[Op]] = [None] * len(slots)
    for index, (forward, inverse) in enumerate(pairs):
        first, second = sorted(slots[2 * index:2 * index + 2])
        ordered[first], ordered[second] = forward, inverse
    return ordered  # type: ignore[return-value]
