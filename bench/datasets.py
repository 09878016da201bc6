"""The generated inputs: LUBM graphs at the three scales, as N-Triples.

Generation is the generator's work, not the program's: it happens before
any clock starts (except in ``load_saturate``, whose set-up *is* producing
the text).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.rdf.graph import Graph
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import URI
from repro.workloads import UNIV, LUBMConfig, generate_lubm

from . import queries
from .spec import GRAPH_SEED, SCALES


@dataclass
class Dataset:
    scale: str
    universities: int
    graph: Graph          # hash backend, as the generator builds it
    text: str             # N-Triples
    triples: int
    digest: str           # of the text: names the graph the oracle saw


def lubm_config(scale: str) -> LUBMConfig:
    config = LUBMConfig(universities=SCALES[scale],
                        departments=queries.DEPARTMENTS)
    ranks = (config.full_professors, config.associate_professors,
             config.assistant_professors, config.lecturers)
    if (ranks != tuple(count for _, count in queries.FACULTY_RANKS)
            or config.graduate_students != queries.GRADUATE_STUDENTS):
        raise RuntimeError(
            "LUBMConfig defaults changed: the parameter universe in "
            "bench/queries.py and bench/expected/ must be regenerated")
    return config


def build(scale: str, seed: int = GRAPH_SEED) -> Dataset:
    graph = generate_lubm(lubm_config(scale), seed=seed)
    text = serialize_ntriples(graph)
    return Dataset(scale=scale, universities=SCALES[scale], graph=graph,
                   text=text, triples=len(graph),
                   digest=hashlib.sha256(text.encode()).hexdigest()[:16])


def individual(local_name: str) -> URI:
    """The URI of a generated individual."""
    return UNIV.term(local_name)
